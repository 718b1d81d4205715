"""Time codag's program-side set-up in this fresh interpreter.

Usage: python3 setup_probe.py '<json list of [config_path, overrides, seeds]>'

Imports ``codag.cli``, then for each entry builds the config as ``codag run``
does and materializes the domain sequence once per seed. Prints the elapsed
seconds as its only output line.
"""

import json
import sys
import time


def main() -> None:
    invocations = json.loads(sys.argv[1])
    start = time.perf_counter()
    from codag import cli
    from codag.rng import substream

    for config_path, overrides, seeds in invocations:
        config = cli.build_config(config_path, overrides)
        for seed in seeds:
            config.sequence.build(split_seed=substream(seed, "data"))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
