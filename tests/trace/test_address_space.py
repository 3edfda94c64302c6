"""Tests for the address-space model and page colouring."""

import random
from collections import defaultdict

import pytest

from repro.cpu.events import decode
from repro.oltp.config import WorkloadConfig
from repro.params import LINE_SIZE
from repro.trace.address_space import MemoryModel, _mix
from repro.trace.codepath import CodeModel
from repro.trace.generator import TraceBuilder


def make(ncpus=1, scale=128, seed=5):
    return MemoryModel(WorkloadConfig.build(ncpus=ncpus, scale=scale, seed=5), seed=seed)


def scalar_page_table(model, seed):
    """Each virtual page's first physical line, hashed one page at a time."""
    salt = _mix(seed + 0x5EED)
    pages = model.virtual_size // model.page_bytes
    table = [(_mix(v ^ salt) & 0xFFFFFFFFFF) * model.page_lines for v in range(pages)]
    ncpus = model.config.ncpus
    for pga_id in range(model.config.num_servers + 2):
        region = model.regions[f"pga{pga_id}"]
        group = (pga_id // ncpus) % model.NUM_ALIAS_GROUPS
        vpage0 = region.base // model.page_bytes
        vpage1 = (region.end - 1) // model.page_bytes
        for j, vpage in enumerate(range(vpage0, vpage1 + 1)):
            colour = _mix((group << 20) ^ (j * 0x9E37) ^ salt) & 0xFFFFF
            table[vpage] = ((1 << 42) | (pga_id << 24) | colour) * model.page_lines
    return table


def open_refs_after_touch(**touch):
    """Physical refs of one ``on_frame`` touch on a fresh builder."""
    model = make()
    rng = random.Random(5)
    builder = TraceBuilder(model, CodeModel(model, rng), rng, warmup_txns=0)
    builder.on_frame(0, **touch)
    return model, [decode(r) for r in model.translate(builder._buf)]


class TestRegions:
    def test_regions_do_not_overlap(self):
        model = make()
        spans = sorted((r.base, r.end, r.name) for r in model.regions.values())
        for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
            assert e0 <= b1, f"{n0} overlaps {n1}"

    def test_regions_page_aligned(self):
        model = make()
        for region in model.regions.values():
            assert region.base % model.page_bytes == 0

    def test_guard_page_between_regions(self):
        model = make()
        spans = sorted((r.base, r.end) for r in model.regions.values())
        for (b0, e0), (b1, e1) in zip(spans, spans[1:]):
            assert b1 - e0 >= 1  # at least the guard gap

    def test_expected_regions_exist(self):
        model = make(ncpus=2)
        names = set(model.regions)
        for required in ("text_hot", "ktext_hot", "sga_buffer", "sga_hash",
                         "sga_headers", "sga_locks", "sga_latch", "sga_txnslot",
                         "log", "kproc", "kpipe", "krunq", "kglobal", "pga0"):
            assert required in names

    def test_one_pga_per_process(self):
        config = WorkloadConfig.build(ncpus=2, scale=128)
        model = MemoryModel(config)
        pgas = [n for n in model.regions if n.startswith("pga")]
        assert len(pgas) == config.num_servers + 2


class TestTranslation:
    def test_deterministic(self):
        a, b = make(seed=9), make(seed=9)
        for addr in range(0, 100_000, 997):
            assert a.line_of(addr) == b.line_of(addr)

    def test_seed_changes_placement(self):
        a, b = make(seed=1), make(seed=2)
        diffs = sum(
            a.line_of(addr) != b.line_of(addr) for addr in range(0, 65536, 4096)
        )
        assert diffs > 10

    def test_same_page_lines_contiguous(self):
        model = make()
        base = model.regions["text_hot"].base
        l0 = model.line_of(base)
        l1 = model.line_of(base + LINE_SIZE)
        assert l1 == l0 + 1

    def test_touch_covers_span(self):
        # 130 bytes at offset 10 cross 2 line boundaries.
        model, refs = open_refs_after_touch(offset=10, nbytes=130, write=False,
                                            dependent=True)
        base = model.frame_addr(0)
        assert [r[0] for r in refs] == [model.line_of(base + i * LINE_SIZE)
                                        for i in range(3)]
        assert [r[4] for r in refs] == [True, False, False]

    def test_touch_empty(self):
        _, refs = open_refs_after_touch(offset=0, nbytes=0, write=True)
        assert refs == []

    def test_line_of_rejects_addresses_outside_the_space(self):
        model = make()
        model.line_of(model.virtual_size - 1)
        for addr in (-1, -model.page_bytes, model.virtual_size,
                     model.virtual_size + model.page_bytes):
            with pytest.raises(IndexError):
                model.line_of(addr)

    @pytest.mark.parametrize("ncpus,scale,seed", [(1, 128, 5), (4, 64, 11),
                                                  (8, 32, 2000)])
    def test_page_table_matches_scalar_hash(self, ncpus, scale, seed):
        model = make(ncpus=ncpus, scale=scale, seed=seed)
        assert model.page_table.tolist() == scalar_page_table(model, seed)

    def test_distinct_objects_distinct_lines(self):
        model = make()
        seen = set()
        for struct, count in (("latch", 8), ("lock", 16)):
            for i in range(count):
                line = model.line_of(model.meta_addr(struct, i))
                assert line not in seen
                seen.add(line)


class TestPlacementHelpers:
    def test_frame_addr_bounds(self):
        model = make()
        model.frame_addr(0)
        model.frame_addr(model.config.buffer_frames - 1)
        with pytest.raises(IndexError):
            model.frame_addr(model.config.buffer_frames)

    def test_meta_addr_unknown_struct(self):
        with pytest.raises(KeyError):
            make().meta_addr("bogus", 0)

    def test_log_addr_wraps(self):
        model = make()
        size = model.config.log_buffer_bytes
        assert model.log_addr(size + 5) == model.log_addr(5)

    def test_pga_addr_wraps_within_region(self):
        model = make()
        region = model.regions["pga0"]
        assert model.pga_addr(0, region.size + 3) == region.base + 3


class TestColouring:
    def test_alias_groups_share_colours(self):
        model = make(ncpus=1)
        ncpus = 1
        groups = defaultdict(list)
        cache_pages = 1 << 14
        for pga_id in range(model.config.num_servers):
            region = model.regions[f"pga{pga_id}"]
            colour = (model.line_of(region.base) // model.page_lines) % cache_pages
            groups[(pga_id // ncpus) % model.NUM_ALIAS_GROUPS].append(colour)
        for colours in groups.values():
            assert len(set(colours)) == 1  # identical within a group

    def test_different_groups_different_colours(self):
        model = make()
        cache_pages = 1 << 14
        colours = set()
        for group_rep in range(model.NUM_ALIAS_GROUPS):
            region = model.regions[f"pga{group_rep}"]
            colours.add((model.line_of(region.base) // model.page_lines) % cache_pages)
        assert len(colours) == model.NUM_ALIAS_GROUPS

    def test_pga_physical_lines_still_unique(self):
        """Aliasing is in the index bits only — addresses stay distinct."""
        model = make()
        lines = set()
        for pga_id in range(model.config.num_servers):
            region = model.regions[f"pga{pga_id}"]
            for off in range(0, region.size, LINE_SIZE):
                line = model.line_of(region.base + off)
                assert line not in lines
                lines.add(line)


class TestTextPages:
    def test_text_pages_cover_code_regions(self):
        model = make()
        for name in ("text_hot", "text_cold", "ktext_hot", "ktext_cold"):
            region = model.regions[name]
            line = model.line_of(region.base)
            assert model.is_text_page(line // model.page_lines)

    def test_data_pages_not_text(self):
        model = make()
        line = model.line_of(model.regions["sga_buffer"].base)
        assert not model.is_text_page(line // model.page_lines)
