"""Set-up probe for ``setup_s``: what a fresh interpreter does before its
first workload call.  It imports the package, builds the CLI parser, parses
the workload arguments given on its own command line, resolves the config
and exits.

    python3 perfbench/probe.py bench --strategies R,RB --len 100 --seeds 1,2 --out x
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sortplant import cli  # noqa: E402
from sortplant.config import EnvConfig, load_config  # noqa: E402

args = cli.build_parser().parse_args(sys.argv[1:])
config = load_config(args.config) if getattr(args, "config", None) else EnvConfig()
