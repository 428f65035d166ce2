"""Light parameter-container layer over the autodiff core.

A :class:`Module` tracks parameters (trainable ``Node`` leaves), buffers
(plain arrays such as batch-norm running statistics) and child modules,
yielding dotted names for checkpointing.  Registration happens through
attribute assignment, mirroring the conventions of the larger frameworks.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import nnops
from .autodiff import Node, ShapeError, no_grad, parameter


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Node):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- traversal -------------------------------------------------------
    def _walk(self, prefix: str = ""):
        """(dotted prefix, module) for this module and every descendant, pre-order."""
        yield prefix, self
        for name, mod in self._modules.items():
            yield from mod._walk(prefix + name + ".")

    def named_parameters(self):
        for prefix, mod in self._walk():
            for name, p in mod._params.items():
                yield prefix + name, p

    def parameters(self) -> list[Node]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        for prefix, mod in self._walk():
            for name, b in mod._buffers.items():
                yield prefix + name, b

    # -- state -----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for _, mod in self._walk():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextmanager
    def evaluating(self):
        """Eval mode without graph recording; the previous mode is restored."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                yield
        finally:
            self.train(was_training)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.value for name, p in self.named_parameters()}
        state.update(dict(self.named_buffers()))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = self.state_dict()
        missing = sorted(set(own) - set(state))
        if missing:
            raise KeyError(f"state dict is missing entries: {missing}")
        unexpected = sorted(set(state) - set(own))
        if unexpected:
            raise KeyError(f"state dict has entries the model does not: {unexpected}")
        for name, dst in own.items():
            src = np.asarray(state[name])
            if src.shape != dst.shape:
                raise ShapeError(
                    f"state entry '{name}': stored shape {src.shape} != model shape {dst.shape}")
            dst[...] = src

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._modules.update((str(i), mod) for i, mod in enumerate(mods))

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self):
        return len(self._modules)

    def __getitem__(self, i):
        return list(self._modules.values())[i]


class Conv2d(Module):
    """Convolution layer with He-normal weight initialisation."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, dilation: int = 1, bias: bool = True, *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        std = np.sqrt(2.0 / (in_channels * kernel * kernel))
        shape = (out_channels, in_channels, kernel, kernel)
        # OIHW shape over tap-major (k, k, cout, cin) memory: each tap's
        # (cout, cin) weights w[:, :, i, j] are one contiguous block
        taps = np.ascontiguousarray(rng.normal(0.0, std, shape).transpose(2, 3, 0, 1))
        self.weight = parameter(taps.transpose(2, 3, 0, 1), dtype=dtype)
        self.bias = parameter(np.zeros(out_channels), dtype=dtype) if bias else None
        self.stride = stride
        self.dilation = dilation

    def forward(self, x) -> Node:
        return nnops.conv2d(x, self.weight, self.bias,
                            stride=self.stride, dilation=self.dilation)


class BatchNorm2d(Module):
    def __init__(self, channels: int, dtype=np.float32):
        super().__init__()
        self.gamma = parameter(np.ones(channels), dtype=dtype)
        self.beta = parameter(np.zeros(channels), dtype=dtype)
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x) -> Node:
        return nnops.batch_norm(x, self.gamma, self.beta,
                                self.running_mean, self.running_var, self.training)
