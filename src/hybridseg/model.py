"""Assembly of the full segmentation network.

Three encoder stages (channel-doubling separable convolutions), a three-block
densely connected bottleneck whose middle block can embed a windowed-attention
pair, and three decoder stages that upsample, convolve, and fuse skip features
refined by a bidirectional ConvLSTM followed by an attention pair. The head
maps to per-pixel probabilities via sigmoid (one class) or softmax.

Alternative attention placements and a skip-LSTM bypass are configuration
flags so ablation rows all build from the same code path.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import blocks as B
from . import tensor as T
from .tensor import FormatError, ShapeError, Tensor

PLACEMENTS = ("none", "dense", "decoder_pools", "skips", "skips_and_dense")


@dataclass
class ModelConfig:
    input_height: int = 32
    input_width: int = 32
    input_channels: int = 1
    base_channels: int = 8
    num_classes: int = 1
    window_size: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    transformer_placement: str = "skips_and_dense"
    skip_lstm: bool = True
    skip_sequence_mode: str = "single"  # or "paired": [decoder, skip] sequence

    def __post_init__(self):
        for key, least in (("input_height", 8), ("input_width", 8),
                           ("window_size", 1), ("num_heads", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}")
        if self.input_height % 8 or self.input_width % 8:
            raise ValueError("input extents must be multiples of 8")
        if not np.isfinite(self.mlp_ratio):
            raise ValueError("mlp_ratio must be finite")
        if self.transformer_placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.transformer_placement!r}"
            )
        if self.skip_sequence_mode not in ("single", "paired"):
            raise ValueError("skip_sequence_mode must be 'single' or 'paired'")
        if min(self.input_channels, self.base_channels, self.num_classes) < 1:
            raise ValueError("channel counts and classes must be positive")
        for d in self._attention_dims():
            if d % self.num_heads:
                raise ValueError(
                    f"attention width {d} not divisible by {self.num_heads} heads"
                )
            if int(d * self.mlp_ratio) < 1:
                raise ValueError(
                    f"mlp_ratio {self.mlp_ratio} leaves attention width {d} "
                    "no MLP hidden channel"
                )

    @property
    def dense_swin(self):
        return self.transformer_placement in ("dense", "skips_and_dense")

    @property
    def skip_swin(self):
        return self.transformer_placement in ("skips", "skips_and_dense")

    @property
    def decoder_swin(self):
        return self.transformer_placement == "decoder_pools"

    def skip_channels(self):
        c = self.base_channels
        return [c, 2 * c, 4 * c]

    def _attention_dims(self):
        dims = []
        if self.dense_swin:
            dims.append(8 * self.base_channels)
        if self.skip_swin or self.decoder_swin:
            dims.extend(self.skip_channels())
        return dims


@dataclass
class SkipPath:
    lstm: object = None  # BConvLSTMParams
    swin: object = None  # SwinBlockParams


@dataclass
class DecoderStage:
    upconv: Tensor
    conv1: B.SeparableConvParams
    conv2: B.SeparableConvParams
    swin: object = None


@dataclass
class ModelParams:
    config: ModelConfig
    enc: list
    dense1: tuple
    dense3: tuple
    head: tuple
    skips: list = field(default_factory=list)
    dec: list = field(default_factory=list)
    dense2_swin: object = None
    dense2_conv: tuple = None

    def flat(self):
        """Stable {path: Tensor} view; the key set is a pure function of the
        configuration, which is what makes checkpoint transfer possible."""
        out = {}

        def put(obj, prefix):
            out.update(B.params_of(obj, prefix))

        for i, (c1, c2) in enumerate(self.enc, 1):
            put(c1, f"enc{i}.conv1")
            put(c2, f"enc{i}.conv2")
        put(self.dense1[0], "dense1.conv1")
        put(self.dense1[1], "dense1.conv2")
        if self.dense2_swin is not None:
            put(self.dense2_swin, "dense2.swin")
        if self.dense2_conv is not None:
            put(self.dense2_conv[0], "dense2.conv1")
            put(self.dense2_conv[1], "dense2.conv2")
        put(self.dense3[0], "dense3.conv1")
        put(self.dense3[1], "dense3.conv2")
        for i, sp in enumerate(self.skips, 1):
            if sp.lstm is not None:
                put(sp.lstm, f"skip{i}.lstm")
            if sp.swin is not None:
                put(sp.swin, f"skip{i}.swin")
        for i, st in enumerate(self.dec, 1):
            put(st.upconv, f"dec{i}.upconv")
            put(st.conv1, f"dec{i}.conv1")
            put(st.conv2, f"dec{i}.conv2")
            if st.swin is not None:
                put(st.swin, f"dec{i}.swin")
        put(self.head[0], "head.conv1")
        put(self.head[1], "head.conv2")
        return out

    def trainable(self):
        return {k: t for k, t in self.flat().items() if t.requires_grad}


def build(config, seed):
    """Deterministically initialized parameters for the given configuration."""
    return _build(config, np.random.default_rng(seed))


class _Zeros:
    """Stand-in random source for _build: each draw is zeros of the asked
    shape, so a build whose weights are replaced next draws no numbers."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def allocate(config):
    """The parameters of the given configuration with every randomly drawn
    weight zero: the shapes that load_checkpoint fills and that count_params
    counts, at no cost in random numbers."""
    return _build(config, _Zeros())


def _build(config, rng):
    """Parameters for the configuration, each weight drawn by rng.normal."""
    c = config.base_channels

    def sep_pair(cin, mid):
        return (
            B.init_separable_conv(rng, cin, mid),
            B.init_separable_conv(rng, mid, mid),
        )

    enc = [
        sep_pair(config.input_channels, c),
        sep_pair(c, 2 * c),
        sep_pair(2 * c, 4 * c),
    ]
    dense1 = sep_pair(4 * c, 8 * c)
    dense2_swin = dense2_conv = None
    if config.dense_swin:
        dense2_swin = B.init_swin_pair(
            rng, 8 * c, config.window_size, config.num_heads, config.mlp_ratio
        )
    else:
        dense2_conv = sep_pair(8 * c, 8 * c)
    dense3 = sep_pair(16 * c, 8 * c)

    skips = []
    for width in config.skip_channels():
        sp = SkipPath()
        if config.skip_lstm:
            sp.lstm = B.init_bconv_lstm(rng, width, width)
        if config.skip_swin:
            sp.swin = B.init_swin_pair(
                rng, width, config.window_size, config.num_heads, config.mlp_ratio
            )
        skips.append(sp)

    dec = []
    dec_in = 32 * c  # dense output: 8C + 8C + 16C
    for width in reversed(config.skip_channels()):  # 4C, 2C, C
        stage = DecoderStage(
            upconv=B.init_transposed_conv(rng, dec_in, width),
            conv1=B.init_separable_conv(rng, width, width),
            conv2=B.init_separable_conv(rng, width, width),
        )
        if config.decoder_swin:
            stage.swin = B.init_swin_pair(
                rng, width, config.window_size, config.num_heads, config.mlp_ratio
            )
        dec.append(stage)
        dec_in = 2 * width

    head = (
        B.init_separable_conv(rng, 2 * c, c),
        B.init_separable_conv(rng, c, config.num_classes),
    )
    return ModelParams(
        config=config, enc=enc, dense1=dense1, dense3=dense3, head=head,
        skips=skips, dec=dec, dense2_swin=dense2_swin, dense2_conv=dense2_conv,
    )


def _swin_padded(x, sp):
    """Run an attention pair, zero-padding to window multiples and cropping."""
    n = sp.window_size
    h, w = x.shape[-2:]
    ph, pw = (-h) % n, (-w) % n
    if ph or pw:
        x = T.pad2d(x, (0, ph, 0, pw))
    y = B.swin_block_pair(x, sp)
    if ph or pw:
        y = T.narrow(T.narrow(y, 2, 0, h), 3, 0, w)
    return y


def _double_conv(x, pair, training, update_stats, relu=False):
    """Two separable conv + BN layers; relu applies a ReLU after the second."""
    h = B.separable_conv_bn(x, pair[0], training, update_stats)
    return B.separable_conv_bn(h, pair[1], training, update_stats, relu)


def forward(params, x, training=False, update_stats=None):
    """Per-pixel class probabilities for a (B, C, H, W) input batch."""
    cfg = params.config
    if x.shape[1:] != (cfg.input_channels, cfg.input_height, cfg.input_width):
        raise ShapeError(
            f"input {x.shape} does not match configured "
            f"({cfg.input_channels}, {cfg.input_height}, {cfg.input_width})"
        )

    skips = []
    h = x
    for pair in params.enc:
        skip, h = B.encoder_block(h, pair, training, update_stats)
        skips.append(skip)

    # densely connected bottleneck
    b1 = _double_conv(h, params.dense1, training, update_stats, relu=True)
    if params.dense2_swin is not None:
        mid = _swin_padded(b1, params.dense2_swin)
    else:
        mid = _double_conv(b1, params.dense2_conv, training, update_stats,
                           relu=True)
    b2 = T.concat([mid, b1], axis=1)
    b3 = T.concat(
        [_double_conv(b2, params.dense3, training, update_stats, relu=True),
         b1, b2],
        axis=1,
    )

    # each stage upsamples the previous stage's output: the bottleneck itself
    # is at 1/8 extent, so feeding it to every stage would break the skip
    # concatenation's shapes from the second stage on
    d = b3
    for i, stage in enumerate(params.dec):
        d = B.transposed_conv(d, stage.upconv)
        d = _double_conv(d, (stage.conv1, stage.conv2), training, update_stats)
        if stage.swin is not None:
            d = _swin_padded(d, stage.swin)

        s = skips[2 - i]
        sp = params.skips[2 - i]
        if sp.lstm is not None:
            seq = [d, s] if cfg.skip_sequence_mode == "paired" else [s]
            s = B.bconv_lstm(seq, sp.lstm)
        if sp.swin is not None:
            s = _swin_padded(s, sp.swin)
        d = T.concat([d, s], axis=1)

    logits = _double_conv(d, params.head, training, update_stats)
    if cfg.num_classes == 1:
        return T.sigmoid(logits)
    return T.softmax(logits, axis=1)


def labels_from_probs(prob):
    """Integer labels from (..., C, H, W) probabilities: threshold 0.5 for one
    class, argmax over the classes otherwise."""
    if prob.shape[-3] == 1:
        return (prob[..., 0, :, :] >= 0.5).astype(np.int64)
    return prob.argmax(axis=-3)


# ---------------------------------------------------------------------------
# counters


def count_params(params):
    """Total trainable parameter elements; running statistics are excluded."""
    return sum(t.size for t in params.trainable().values())


def _sepconv_flops(cin, cout, h, w, k=3):
    return 2 * (k * k * cin + cin * cout) * h * w


def _swin_flops(d, h, w, n, mlp_ratio):
    """FLOPs of _swin_padded on an (h, w) map: the pair runs on the grid
    padded to window multiples, and complexity_swmsa counts one block's
    multiply-accumulates."""
    h, w = -(-h // n) * n, -(-w // n) * n
    attn = 2 * 2 * B.complexity_swmsa(h, w, d, n)  # two blocks, 2 FLOPs per MAC
    mlp = 2 * 2 * 2 * h * w * d * int(d * mlp_ratio)  # two blocks, two layers
    return attn + mlp


def _transposed_conv_flops(cin, cout, h, w):
    """FLOPs of B.transposed_conv producing an (h, w) map: each output pixel
    takes one product per input channel, as the 2x2 windows do not overlap."""
    return 2 * cin * cout * h * w


def _convlstm_flops(cin, hidden, h, w, steps, k=3):
    """FLOPs of B.bconv_lstm over a sequence of `steps` maps. A zero-state
    step convolves its input with three x-kernels (no forget gate); each
    step after the first convolves it with all four, and the state with the
    four h-kernels and two cell peepholes. The reverse pass runs one
    zero-state step, and two kernels mix the directions."""
    first = 3 * cin * hidden
    forward = first + (steps - 1) * (4 * cin * hidden + 6 * hidden * hidden)
    reverse = first
    mix = 2 * hidden * hidden
    return 2 * k * k * h * w * (forward + reverse + mix)


def count_flops(config):
    """Multiply-accumulates x2 summed over convolution and attention layers,
    from shapes alone. Normalization and activations are not counted."""
    c = config.base_channels
    h, w = config.input_height, config.input_width
    total = 0
    cin = config.input_channels
    for width in config.skip_channels():
        total += _sepconv_flops(cin, width, h, w) + _sepconv_flops(width, width, h, w)
        cin = width
        h, w = h // 2, w // 2

    total += _sepconv_flops(4 * c, 8 * c, h, w) + _sepconv_flops(8 * c, 8 * c, h, w)
    if config.dense_swin:
        total += _swin_flops(8 * c, h, w, config.window_size, config.mlp_ratio)
    else:
        total += 2 * _sepconv_flops(8 * c, 8 * c, h, w)
    total += _sepconv_flops(16 * c, 8 * c, h, w) + _sepconv_flops(8 * c, 8 * c, h, w)

    dec_in = 32 * c
    steps = 2 if config.skip_sequence_mode == "paired" else 1
    for width in reversed(config.skip_channels()):
        h, w = h * 2, w * 2
        total += _transposed_conv_flops(dec_in, width, h, w)
        total += 2 * _sepconv_flops(width, width, h, w)
        if config.decoder_swin:
            total += _swin_flops(width, h, w, config.window_size, config.mlp_ratio)
        if config.skip_lstm:
            total += _convlstm_flops(width, width, h, w, steps)
        if config.skip_swin:
            total += _swin_flops(width, h, w, config.window_size, config.mlp_ratio)
        dec_in = 2 * width

    total += _sepconv_flops(2 * c, c, h, w)
    total += _sepconv_flops(c, config.num_classes, h, w)
    return total


# ---------------------------------------------------------------------------
# checkpoints and transfer


def _shape_str(shape):
    return "x".join(str(s) for s in shape)


def _siblings(directory):
    """(temporary, aside) names of a save into directory: the new files
    are written into the first, an existing checkpoint waits in the
    second while the new one takes its name."""
    return (directory.with_name(f".{directory.name}.tmp"),
            directory.with_name(f".{directory.name}.old"))


def _restore_interrupted(directory):
    """Put back a checkpoint that a save killed between its two renames
    left aside, so that the directory names it again."""
    aside = _siblings(directory)[1]
    if not directory.exists() and aside.is_dir():
        os.replace(aside, directory)


def save_checkpoint(params, directory):
    """Write a checkpoint directory: config.txt, manifest.txt (one
    'key shape offset' line per tensor), and the tensor blobs.

    The files go into the sibling temporary directory .<name>.tmp, which
    then takes the checkpoint's name with os.replace. An existing
    checkpoint is first moved aside to .<name>.old, put back if that swap
    fails, and removed once it succeeds. A save that fails at any point
    leaves the old checkpoint as it was and no sibling behind. A process
    killed between the two renames leaves the old checkpoint at
    .<name>.old: the next save or load of the directory puts it back, and
    the next save removes what else a killed save left. One process at a
    time saves to a directory.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    _restore_interrupted(directory)
    tmp, aside = _siblings(directory)
    for stale in (tmp, aside):  # left by a killed save
        shutil.rmtree(stale, ignore_errors=True)
    try:
        tmp.mkdir()
        _write_checkpoint(params, tmp)
        if directory.exists():
            os.replace(directory, aside)
            try:
                os.replace(tmp, directory)
            except BaseException:
                os.replace(aside, directory)
                raise
            shutil.rmtree(aside)
        else:
            os.replace(tmp, directory)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_checkpoint(params, directory):
    flat = params.flat()
    manifest = []
    offset = 0
    with open(directory / "tensors.bin", "wb") as fh:
        for key in sorted(flat):
            blob = T.tensor_to_bytes(flat[key])
            manifest.append(f"{key} {_shape_str(flat[key].shape)} {offset}")
            fh.write(blob)
            offset += len(blob)
    (directory / "manifest.txt").write_text("\n".join(manifest) + "\n")
    (directory / "config.txt").write_text(config_to_text(params.config))


def _read_text(path):
    """The UTF-8 text of a checkpoint file; other bytes are a FormatError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def load_checkpoint_tensors(directory):
    """Read {key: Tensor} from a checkpoint directory. The manifest names each
    key once, and its records, sorted by offset, tile tensors.bin exactly.
    Per-gate ConvLSTM keys of older checkpoints come back stacked."""
    directory = Path(directory)
    _restore_interrupted(directory)
    manifest_path = directory / "manifest.txt"
    blob_path = directory / "tensors.bin"
    if not manifest_path.exists() or not blob_path.exists():
        raise FormatError(f"{directory} is not a checkpoint directory")
    buf = blob_path.read_bytes()
    out = {}
    spans = []
    for line in _read_text(manifest_path).splitlines():
        if not line.strip():
            continue
        try:
            key, shape_s, offset_s = line.split()
            offset = int(offset_s)
            expect = tuple(int(v) for v in shape_s.split("x"))
        except ValueError as exc:
            raise FormatError(f"malformed manifest line: {line!r}") from exc
        if key in out:
            raise FormatError(f"manifest names {key} twice")
        t, end = T.tensor_from_bytes(buf, offset)
        if t.shape != expect:
            raise FormatError(f"manifest shape {expect} != payload {t.shape}")
        out[key] = t
        spans.append((offset, end, key))
    pos = 0
    for start, end, key in sorted(spans):
        if start != pos:
            kind = "overlaps the one before it" if start < pos else "follows a gap"
            raise FormatError(f"tensors.bin record {key} at {start} {kind}")
        pos = end
    if pos != len(buf):
        raise FormatError(f"tensors.bin has {len(buf) - pos} trailing bytes")
    return _stack_gate_keys(out)


# ConvLSTM tensors that checkpoints written before the gates were stacked
# per input stream keep one key per gate, such as skip1.lstm.forward.w_x_i
_GATE_KEYS = {"w_x": "ifoc", "w_h": "ifoc", "w_c": "if", "b": "ifoc"}


def _stack_gate_keys(tensors):
    """Replace per-gate ConvLSTM keys by the stacked ones, gates in the
    order i, f, o, c; a direction that lacks one of them is a FormatError."""
    legacy = {f"{name}_{g}" for name, gates in _GATE_KEYS.items() for g in gates}
    prefixes = {k.rsplit(".", 1)[0] for k in tensors
                if k.rsplit(".", 1)[-1] in legacy}
    for prefix in sorted(prefixes):
        for name, gates in _GATE_KEYS.items():
            keys = [f"{prefix}.{name}_{g}" for g in gates]
            missing = [k for k in keys if k not in tensors]
            if missing:
                raise FormatError(f"checkpoint lacks per-gate tensor {missing[0]}")
            try:
                data = np.concatenate([tensors.pop(k).data for k in keys])
            except ValueError as exc:
                raise FormatError(f"per-gate tensors {prefix}.{name}_* do not "
                                  f"stack: {exc}") from exc
            tensors[f"{prefix}.{name}"] = Tensor(data)
    return tensors


def load_checkpoint(directory):
    """Rebuild ModelParams from a checkpoint directory, bitwise faithful. The
    parameters are allocated by shape (allocate) and filled from the stored
    tensors, so a load draws no random numbers."""
    directory = Path(directory)
    _restore_interrupted(directory)
    config_path = directory / "config.txt"
    cfg = config_from_text(_read_text(config_path), source=str(config_path))
    params = allocate(cfg)
    stored = load_checkpoint_tensors(directory)
    flat = params.flat()
    if set(stored) != set(flat):
        raise FormatError("checkpoint key set does not match its configuration")
    for key, t in flat.items():
        if stored[key].shape != t.shape:
            raise FormatError(f"checkpoint tensor {key} has wrong shape")
        t.data = stored[key].data
    return params


@dataclass
class TransferReport:
    copied: list
    skipped_shape: list
    missing: list


def transfer_weights(target, source_checkpoint):
    """Copy every tensor whose key and shape match from a checkpoint into the
    target parameters; everything else is enumerated in the report."""
    stored = load_checkpoint_tensors(source_checkpoint)
    copied, skipped, missing = [], [], []
    for key, t in sorted(target.flat().items()):
        if key not in stored:
            missing.append(key)
        elif stored[key].shape != t.shape:
            skipped.append(key)
        else:
            t.data = stored[key].data.copy()
            copied.append(key)
    return target, TransferReport(copied, skipped, missing)


# ---------------------------------------------------------------------------
# flat key=value config text


def config_to_text(cfg):
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_kv(text, source="<config>"):
    """{key: value} strings from key=value lines; '#' starts a comment. A
    key may appear once."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}: malformed line {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"{source}: key {key!r} given twice")
        values[key] = val
    return values


def _parse_value(name, default, text):
    if isinstance(default, bool):
        if text.lower() in ("true", "1"):
            return True
        if text.lower() in ("false", "0"):
            return False
        raise ValueError(f"{name}: expected true, false, 1 or 0, got {text!r}")
    if isinstance(default, tuple):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    try:
        return type(default)(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def config_from_kv(cls, values):
    """Build the config dataclass `cls` from {key: str}. Each field converts
    with the type of its default; a field whose default is itself a config
    dataclass takes that class's fields as flat keys. Known keys are popped
    from `values`, so what remains is for the caller to report."""
    kwargs = {}
    for f in fields(cls):
        default = f.default if f.default is not MISSING else f.default_factory()
        if is_dataclass(default):
            kwargs[f.name] = config_from_kv(type(default), values)
        elif f.name in values:
            kwargs[f.name] = _parse_value(f.name, default, values.pop(f.name))
    return cls(**kwargs)


def config_from_text(text, overrides=None, source="<config>"):
    values = {**parse_kv(text, source), **(overrides or {})}
    # config.txt files written before this field was removed all carry it
    if values.pop("literal_decoder_input", "false").lower() not in ("false", "0"):
        raise ValueError("literal_decoder_input was removed; only False loads")
    cfg = config_from_kv(ModelConfig, values)
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return cfg
