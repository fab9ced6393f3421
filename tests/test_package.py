import inspect

import epimatch
from epimatch import metrics, pipeline


def test_every_exported_name_resolves():
    missing = [name for name in epimatch.__all__ if not hasattr(epimatch, name)]
    assert missing == []


def test_matcher_config_is_required():
    # the caller owns the matcher config; no entry point makes one up
    entries = [pipeline.pretrain, pipeline.finetune_pose_supervised, pipeline.bootstrap_fundamentals,
               pipeline.bootstrap_finetune, metrics.evaluate]
    defaults = {f.__name__: inspect.signature(f).parameters["mcfg"].default for f in entries}
    assert defaults == dict.fromkeys(defaults, inspect.Parameter.empty)
