"""Time one set-up in a fresh interpreter; print its seconds and the speed factor.

usage: python3 setup_probe.py SRC_DIR CONFIG_INI INPUT_SHAPE_JSON N_CLASSES

Set-up is what a user pays before the first batch: importing deepself,
parsing the run's config, building the model and, when the config filters,
designing the band-pass filter.  The machine's speed (see calibration.py) is
measured first, in the same process, before anything is imported.
"""

import json
import sys
import time

from calibration import speed_factor


def main(argv) -> int:
    src, config_path, shape, n_classes = argv
    factor = speed_factor()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from deepself.config import load_config
    from deepself.dsp import design_butterworth_bandpass
    from deepself.models import init_model

    cfg = load_config(config_path)
    init_model(cfg.model_spec(tuple(json.loads(shape)), int(n_classes)))
    if cfg.filter:
        design_butterworth_bandpass(cfg.filter_low, cfg.filter_high, cfg.sample_rate)
    print(time.perf_counter() - start, factor)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
