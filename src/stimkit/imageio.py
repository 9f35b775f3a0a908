"""Minimal PNG / PPM / PGM reading and writing.

Only what the CLI needs: 8-bit grayscale and RGB, non-interlaced. PNG
writing uses filter type 2 (Up: each byte minus the byte above it) on
every row, so output bytes are fully deterministic for identical pixel
data, and the smooth images the CLI writes compress smaller and faster
than unfiltered rows. The reader handles filter types 0-4 and strips
alpha channels; anything fancier (palette, 16-bit, interlace) raises
with a hint to convert to PPM.
"""

import struct
import zlib

import numpy as np

from .errors import StimkitError
from .spec import write_atomic


class ImageFormatError(StimkitError):
    pass


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag, payload):
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, img):
    """Write a uint8 array of shape (H, W) or (H, W, 3) as PNG."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color_type, channels = 0, 1
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ImageFormatError(f"expected (H,W) or (H,W,3) uint8, got shape {img.shape}")
    h, w = img.shape[:2]
    flat = img.reshape(h, w * channels)
    raw = np.empty((h, 1 + w * channels), dtype=np.uint8)
    raw[:, 0] = 2  # filter type Up; the row above the first is zeros
    raw[0, 1:] = flat[0]
    np.subtract(flat[1:], flat[:-1], out=raw[1:, 1:])  # modulo 256
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    data = _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(raw, 6)) + _chunk(b"IEND", b"")
    write_atomic(path, data)


def _unfilter(raw, h, w, channels):
    stride = w * channels
    rows = np.frombuffer(raw, dtype=np.uint8, count=h * (1 + stride)).reshape(h, 1 + stride)
    ftypes = rows[:, 0]
    if ftypes.max() > 4:
        raise ImageFormatError(f"unsupported PNG filter type {ftypes[ftypes > 4][0]}")
    out = rows[:, 1:].copy()
    row = 0
    while row < h:
        ftype, end = ftypes[row], row + 1
        if ftype == 2:  # Up: a run of Up rows sums down the columns, from the row above the run
            while end < h and ftypes[end] == 2:
                end += 1
            start = max(row - 1, 0)
            np.cumsum(out[start:end], axis=0, dtype=np.uint8, out=out[start:end])
        elif ftype == 1:  # Sub: each pixel sums along the row, per channel
            np.cumsum(out[row].reshape(w, channels), axis=0, dtype=np.uint8, out=out[row].reshape(w, channels))
        elif ftype >= 3:
            cur = out[row].tolist()
            prev = out[row - 1].tolist() if row else [0] * stride
            for i in range(stride):
                a = cur[i - channels] if i >= channels else 0
                b = prev[i]
                if ftype == 3:  # Average
                    pred = (a + b) // 2
                else:  # Paeth
                    c = prev[i - channels] if i >= channels else 0
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
                    pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
                cur[i] = (cur[i] + pred) & 0xFF
            out[row] = cur
        row = end
    return out.reshape((h, w, channels))


def _check_size(path, width, height, needed, present):
    """Reject an empty image, or a payload short of the header's size, before allocating."""
    if width < 1 or height < 1 or present < needed:
        raise ImageFormatError(f"{path}: a {width}x{height} image needs {needed} data bytes, {present} present")


def read_png(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _PNG_SIG:
        raise ImageFormatError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    idat = bytearray()
    color_type = bit_depth = interlace = None
    try:
        while pos < len(blob):
            (length,) = struct.unpack(">I", blob[pos : pos + 4])
            tag = blob[pos + 4 : pos + 8]
            payload = blob[pos + 8 : pos + 8 + length]
            pos += 12 + length
            if tag == b"IHDR":
                width, height, bit_depth, color_type, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            elif tag == b"IDAT":
                idat.extend(payload)
            elif tag == b"IEND":
                break
    except struct.error as e:
        raise ImageFormatError(f"{path}: truncated PNG chunk at byte {pos}") from e
    if bit_depth != 8 or interlace != 0 or color_type not in (0, 2, 4, 6):
        raise ImageFormatError(
            f"{path}: only 8-bit non-interlaced gray/RGB PNG supported; convert to PPM"
        )
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as e:
        raise ImageFormatError(f"{path}: corrupt PNG image data: {e}") from e
    _check_size(path, width, height, height * (1 + width * channels), len(raw))
    img = _unfilter(raw, height, width, channels)
    if channels == 2:
        img = img[:, :, :1]
    elif channels == 4:
        img = img[:, :, :3]
    if img.shape[2] == 1:
        img = img[:, :, 0]
    return img


def write_ppm(path, img):
    """Write uint8 (H, W, 3) as binary PPM (P6), or (H, W) as PGM (P5)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        magic = b"P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
    else:
        raise ImageFormatError(f"expected (H,W) or (H,W,3) uint8, got shape {img.shape}")
    h, w = img.shape[:2]
    write_atomic(path, magic + b"\n%d %d\n255\n" % (w, h) + img.tobytes())


def read_ppm(path):
    with open(path, "rb") as f:
        blob = f.read()
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: not a binary PGM/PPM file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ImageFormatError(f"{path}: malformed PGM/PPM header field {blob[start:pos][:16]!r}")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 supported")
    channels = 3 if magic == b"P6" else 1
    _check_size(path, w, h, h * w * channels, len(blob) - pos)
    data = np.frombuffer(blob, dtype=np.uint8, count=h * w * channels, offset=pos)
    img = data.reshape((h, w, channels))
    return img[:, :, 0] if channels == 1 else img


def read_image(path):
    """Read PNG or PPM/PGM by sniffing the header; returns uint8 array."""
    with open(path, "rb") as f:
        head = f.read(8)
    if head[:8] == _PNG_SIG:
        return read_png(path)
    if head[:2] in (b"P5", b"P6"):
        return read_ppm(path)
    raise ImageFormatError(f"{path}: unrecognized image format (PNG/PPM/PGM supported)")


def write_image(path, img):
    path = str(path)
    if path.endswith((".ppm", ".pgm")):
        write_ppm(path, img)
    else:
        write_png(path, img)


def to_gray01(img):
    """uint8 gray or RGB image to float64 grayscale in [0, 1]."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 3:
        arr = 0.299 * arr[:, :, 0] + 0.587 * arr[:, :, 1] + 0.114 * arr[:, :, 2]
    return arr / 255.0
