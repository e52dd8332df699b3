"""Write the placement-grid row digests that the benchmark checks against.

The committed file holds the rows as the seed commit printed them; rerun
this only to re-baseline on purpose:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from irschain import cli, deployment, metrics

from workloads import GOLDEN_ROWS, row_digest


def main() -> None:
    lines = [f"{index} {mode} {row_digest(cli.evaluate_point(mode, p))}"
             for index, p in enumerate(deployment.agreement_grid())
             for mode in metrics.MODES]
    GOLDEN_ROWS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} row digests to {GOLDEN_ROWS}")


if __name__ == "__main__":
    main()
