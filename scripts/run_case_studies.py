#!/usr/bin/env python3
"""Run every equilibrium case study and dump the gain tables.

Usage: python scripts/run_case_studies.py [GAINS_CSV]
"""

import sys

from qgmem.cli import write_gains
from qgmem.equilibrium import CASE_IDS, case_study

rows = []
for case_id in CASE_IDS:
    report = case_study(case_id)
    print("\n".join(report.lines()))
    rows.extend(report.gain_rows)

if len(sys.argv) > 1:
    write_gains(sys.argv[1], rows)
    print(f"wrote {len(rows)} gain rows to {sys.argv[1]}")
