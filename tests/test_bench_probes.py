"""The benchmark's probes (``bench/probes.py``) wrap public names of the
package and fail on any that is missing, so these names are part of the
package's surface: ``TargetDensity.log_density`` and ``grad_log_density``,
``kernels.tune_step_size``, ``parallel.island_weights``, ``nets.forward``,
and the likelihood pairs from ``nets.make_loglik`` and
``targets.gaussian_loglik``."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from anchormc import nets, targets  # noqa: E402
from anchormc.data import Dataset  # noqa: E402
from bench import probes  # noqa: E402

SPEC = nets.NetworkSpec(kind="cnn", image_shape=(4, 4), conv_channels=2, n_classes=3)


def test_probes_wrap_the_package_and_undo_on_exit():
    originals = (nets.make_loglik, targets.gaussian_loglik, targets.TargetDensity.log_density)
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(size=(5, 16)), y=rng.integers(0, 3, 5), image_shape=(4, 4))
    tracer = probes.new_tracer()
    with probes.instrument(tracer):
        pairs = {
            "nets": nets.make_loglik(SPEC, data),
            "targets": targets.gaussian_loglik(np.zeros(SPEC.n_params), 0.5),
        }
        for prefix, pair in pairs.items():
            target = targets.TargetDensity(*pair, targets.GaussianPrior(1.0, SPEC.n_params))
            theta = rng.normal(size=SPEC.n_params)
            target.log_density(theta)
            target.grad_log_density(theta)
            assert tracer.get(f"{prefix}.loglik").count == 1
            assert tracer.get(f"{prefix}.grad").count == 1
    assert tracer.get("targets.log_density").count == 2
    assert tracer.get("targets.grad_log_density").count == 2
    assert (nets.make_loglik, targets.gaussian_loglik, targets.TargetDensity.log_density) == originals
