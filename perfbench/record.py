"""Write seed_record.json: the verdict, deviation and output digest of each
of the benchmark's fixed reference cases, as the current sources give them.

    python3 perfbench/record.py

Traced verify-all runs replay these cases and report how many outputs
differ in bytes (cli.output_drift) and how many fail
(verify.reference_failures). Regenerate the record only on purpose.
"""

import json
import sys
import tempfile

from run import OUT_DIR, RECORD, import_cases


def main() -> int:
    cases = import_cases()
    OUT_DIR.mkdir(exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for case in cases.reference_cases():
            outcome = cases.run_case(case, scratch)
            rows.append({"argv": list(case.args["argv"]),
                         "passed": outcome.ok,
                         "deviation": outcome.deviation,
                         "tolerance": outcome.tolerance,
                         "digest": outcome.digest})
    RECORD.write_text(json.dumps({"cases": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} cases to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
