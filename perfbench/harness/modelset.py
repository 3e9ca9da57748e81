"""The hosted model set every workload serves, trained during set-up.

Three models, trained from the simulated substrate on the small zoo
roster at batch sizes 64 and 512:

- ``kw-a100``: kernel-wise, A100;
- ``lw-a40``: layer-wise, A40;
- ``igkw``: inter-GPU kernel-wise over A100, A40 and GTX 1080 Ti.
  TITAN RTX and V100 are held out, so the benchmark's accuracy check
  prices them purely by retargeting.

The model set is fixed: the seed varies only the requests sent to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

TRAIN_GPUS = ("A100", "A40", "GTX 1080 Ti")
HELD_OUT_GPUS = ("TITAN RTX", "V100")
TRAIN_BATCHES = (64, 512)

#: (network, batch) combinations the AOT compile store covers. Five
#: networks with well-separated plan costs times three batch sizes: an
#: odd count of equally weighted classes keeps p50 and p90 off class
#: boundaries.
NETWORKS = ("vgg11", "resnet18", "mobilenet_v2", "resnet50", "densenet121")
BATCHES = (32, 64, 512)

#: Every GPU of the paper's Table 1.
TABLE1_GPUS = ("A100", "A40", "GTX 1080 Ti", "Quadro P620", "RTX A5000",
               "TITAN RTX", "V100")

#: Networks the accuracy check scores, none of them in the training
#: roster: deeper or shallower members of the ResNet, VGG and DenseNet
#: families the small roster trains on. The service compiles their
#: plans lazily, after the timed phase.
ACCURACY_NETWORKS = ("resnet34", "resnet101", "vgg13", "vgg16",
                     "densenet169")
ACCURACY_BATCH = 512


def train(directory) -> List[str]:
    """Train and save the model set into ``directory``; returns names."""
    from repro import core, dataset, zoo
    from repro.gpu import gpu

    directory = Path(directory)
    specs = [gpu(name) for name in TRAIN_GPUS]
    data = dataset.build_dataset(zoo.imagenet_roster("small"), specs,
                                 batch_sizes=list(TRAIN_BATCHES))
    core.save_model(core.train_model(data, "kw", gpu="A100"),
                    directory / "kw-a100.json")
    core.save_model(core.train_model(data, "lw", gpu="A40"),
                    directory / "lw-a40.json")
    core.save_model(core.train_inter_gpu_model(data, specs),
                    directory / "igkw.json")
    return sorted(path.stem for path in directory.glob("*.json"))


def compile_plans(directory) -> None:
    """``repro compile`` over the model set: AOT plan bundles on disk."""
    from repro.core import planopt

    report = planopt.compile_store(directory, network_names=NETWORKS,
                                   batch_sizes=BATCHES)
    if not report.ok:
        raise RuntimeError(report.render())


def accuracy_errors(service) -> Dict[str, List[float]]:
    """Relative errors against the substrate at native bandwidths.

    ``kw`` covers ``kw-a100`` on the A100; ``igkw`` covers the GPUs held
    out of IGKW training. Every network of :data:`ACCURACY_NETWORKS`, all
    held out of training, at batch 512.
    """
    from repro import zoo
    from repro.gpu import SimulatedGPU, gpu

    points = [("kw", "kw-a100", "A100")] + [
        ("igkw", "igkw", name) for name in HELD_OUT_GPUS]
    errors: Dict[str, List[float]] = {"kw": [], "igkw": []}
    devices = {}
    for tier, model, gpu_name in points:
        device = devices.setdefault(gpu_name, SimulatedGPU(gpu(gpu_name)))
        for network in ACCURACY_NETWORKS:
            body = {"model": model, "network": network,
                    "batch_size": ACCURACY_BATCH}
            if tier == "igkw":
                body["gpu"] = gpu_name
            predicted = service.predict(body)["predicted_us"]
            measured = device.run_network(zoo.build(network),
                                          ACCURACY_BATCH).e2e_us
            errors[tier].append(abs(predicted - measured) / measured)
    return errors

