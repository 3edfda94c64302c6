"""Figure 3: memory latencies for the studied configurations.

Unlike the other experiments this is an input table, not a simulation
output; reproducing it means rendering the table we actually simulate
with and checking the ratios the paper quotes in Section 2.3 (full
integration cuts L2 hit 1.67x, local 1.33x, remote 1.17x, remote
dirty 1.38x relative to Base).
"""

from __future__ import annotations

from repro.params import IntegrationLevel, figure3_rows, latencies


def reduction_ratios() -> dict:
    """Section 2.3 ratios: Base (1-way) over full integration."""
    base = latencies(IntegrationLevel.BASE, l2_assoc=1)
    full = latencies(IntegrationLevel.FULL)
    return {
        "l2_hit": base.l2_hit / full.l2_hit,
        "local": base.local / full.local,
        "remote_clean": base.remote_clean / full.remote_clean,
        "remote_dirty": base.remote_dirty / full.remote_dirty,
    }


def render() -> str:
    """The Figure-3 table, in cycles (equals ns at 1 GHz)."""
    lines = [
        "Figure 3: memory latencies per configuration (cycles @ 1 GHz)",
        f"{'configuration':28s} {'L2 hit':>7s} {'local':>7s} {'remote':>7s} {'dirty':>7s}",
    ]
    for label, row in figure3_rows():
        lines.append(
            f"{label:28s} {row.l2_hit:7d} {row.local:7d} "
            f"{row.remote_clean:7d} {row.remote_dirty:7d}"
        )
    ratios = reduction_ratios()
    lines.append(
        "full integration vs Base: "
        f"L2 hit {ratios['l2_hit']:.2f}x, local {ratios['local']:.2f}x, "
        f"remote {ratios['remote_clean']:.2f}x, dirty {ratios['remote_dirty']:.2f}x"
    )
    return "\n".join(lines)
