import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tilediff import imagecore
from tilediff.imagecore import CodecError, Image, load_image

import oracles
from conftest import write_image


def test_range_endpoints():
    codes = np.array([[[0], [255]]], dtype=np.uint8)
    values = imagecore.model_values(codes)
    assert values[0, 0, 0] == -1.0
    assert values[0, 1, 0] == 1.0


def test_quantized_roundtrip_is_idempotent(tmp_path):
    img = Image(np.array([[[0.1], [-0.7]], [[0.33], [0.99]]]))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(p1, img.data)
    once = load_image(p1)
    write_image(p2, once.data)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(imagecore.quantize(once), imagecore.quantize(img))


def test_two_cycle_files_byte_identical(tmp_path, rng):
    # hash-comparison oracle on a random 16x16 RGB image, written in one
    # band and then, once loaded, a row at a time
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_image(p1, rng.uniform(-1, 1, size=(16, 16, 3)))
    once = load_image(p1).data
    with imagecore.pnm_writer(p2, *once.shape) as write:
        for row in once:
            write(row[None])
    h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert h(p1) == h(p2)


def _half_code_ties():
    """Values v in [-1, 1] whose scaled (v + 1) * 127.5 is exactly k + 1/2,
    where rint rounds to the even code."""
    v = (np.arange(255) + 0.5) / 127.5 - 1.0
    return v[(v + 1.0) * (255.0 / 2.0) == np.arange(255) + 0.5]


def test_there_are_half_code_ties():
    assert len(_half_code_ties()) > 100


_codec_values = st.one_of(
    st.floats(-3.0, 3.0), st.sampled_from(list(_half_code_ties())),
    st.sampled_from([-1.0, 1.0, -0.0, 0.0, 1e300, -1e300]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3 * imagecore.BAND_ROWS + 5), st.integers(1, 5),
       st.sampled_from([1, 3]), st.data())
def test_banded_codes_equal_the_whole_image_quantizer(height, width,
                                                      channels, data):
    # heights below, at and past a band, mostly not a multiple of one
    shape = (height, width, channels)
    values = data.draw(arrays(np.float64, shape, elements=_codec_values))
    codes = imagecore.quantize(Image(values))
    assert codes.dtype == np.uint8
    assert codes.tobytes() == oracles.quantize(values).tobytes()


@given(st.integers(0, 5 * imagecore.BAND_ROWS), st.integers(1, 40))
def test_row_bands_cover_the_rows_in_block_multiples(height, block):
    # blocks below, at and past BAND_ROWS, which then is one band of block
    bands = list(imagecore.row_bands(height, block))
    assert [i for ys in bands for i in range(height)[ys]] == \
        list(range(height))
    assert all(ys.stop > ys.start for ys in bands)
    most = block * -(-imagecore.BAND_ROWS // block)
    assert all(ys.stop - ys.start <= most for ys in bands)
    # every band but the last is the fewest block multiple past BAND_ROWS
    assert all(ys.stop - ys.start == most for ys in bands[:-1])
    assert most % block == 0 and most - block < imagecore.BAND_ROWS <= most


def test_dequantize_is_the_scale_and_shift_of_the_codes(tmp_path):
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16, 1)
    p = tmp_path / "ramp.pgm"
    p.write_bytes(b"P5\n16 16\n255\n" + codes.tobytes())
    want = codes.astype(np.float64) * (2.0 / 255.0) - 1.0
    img = load_image(p)
    assert img.data.tobytes() == want.tobytes()
    assert not img.data.flags.writeable


def test_code_reader_windows_are_the_whole_images_values(tmp_path, rng):
    p = tmp_path / "a.ppm"
    write_image(p, rng.uniform(-1, 1, size=(20, 12, 3)))
    reader = imagecore.CodeReader(imagecore.read_codes(p))
    whole = load_image(p).data
    assert reader.shape == whole.shape
    assert reader[3:17, 5:9].tobytes() == whole[3:17, 5:9].tobytes()
    assert np.asarray(reader).tobytes() == whole.tobytes()


def test_writer_renames_only_a_complete_file(tmp_path):
    path = tmp_path / "a.ppm"
    with pytest.raises(ValueError, match="1 rows short of the header"):
        with imagecore.pnm_writer(path, 2, 3, 3) as write:
            write(np.zeros((1, 3, 3)))
    with pytest.raises(KeyError):
        with imagecore.pnm_writer(path, 1, 3, 3) as write:
            write(np.zeros((1, 3, 3)))
            raise KeyError
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_rejects_a_nonfinite_band(tmp_path, value):
    path = tmp_path / "a.ppm"
    bad = np.zeros((2, 3, 3))
    bad[1, 2, 0] = value
    with pytest.raises(ValueError, match="^image data contains NaN or Inf$"):
        with imagecore.pnm_writer(path, 3, 3, 3) as write:
            write(np.zeros((1, 3, 3)))
            write(bad)
    assert not path.exists()
    assert not (tmp_path / "a.ppm.part").exists()
    # no byte of the rejected band is written: the rows that follow it
    # still make the whole file
    with imagecore.pnm_writer(path, 1, 3, 3) as write:
        with pytest.raises(ValueError, match="NaN or Inf"):
            write(bad[1:])
        write(np.ones((1, 3, 3)))
    assert path.read_bytes() == b"P6\n3 1\n255\n" + bytes([255] * 9)


@pytest.mark.parametrize("shape", [(2, 4, 3), (3, 3, 3)])
def test_writer_rejects_a_band_that_does_not_fit_the_header(tmp_path, shape):
    # a band wider than the header, and one row more than it owes
    path = tmp_path / "a.ppm"
    with pytest.raises(ValueError, match="does not fit"):
        with imagecore.pnm_writer(path, 2, 3, 3) as write:
            write(np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


def test_load_image_holds_one_float_canvas(tmp_path, rng):
    # the float image and one row band of the finiteness check's booleans;
    # the file's codes are mapped, not read onto the heap
    p = tmp_path / "a.ppm"
    write_image(p, rng.uniform(-1, 1, size=(256, 256, 3)))
    load_image(p)
    tracemalloc.start()
    try:
        img = load_image(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / img.data.nbytes < 1.05


def test_image_keeps_a_frozen_array_and_copies_any_other():
    frozen = np.zeros((2, 3, 3))
    frozen.flags.writeable = False
    assert Image(frozen).data is frozen
    writable = np.zeros((2, 3, 3))
    img = Image(writable)
    assert not np.shares_memory(img.data, writable)
    assert not img.data.flags.writeable
    # a read-only view can still change through its base
    view = writable[:, :2]
    view.flags.writeable = False
    assert not np.shares_memory(Image(view).data, writable)


def test_codec_errors(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P7\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(CodecError):
        load_image(bad)
    bad.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 12)
    with pytest.raises(CodecError):
        load_image(bad)
    bad.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)  # truncated payload
    with pytest.raises(CodecError):
        load_image(bad)
    bad.write_bytes(b"P6\n2 xx\n255\n")
    with pytest.raises(CodecError):
        load_image(bad)


def test_save_clamps_out_of_range(tmp_path):
    p = tmp_path / "c.pgm"
    write_image(p, np.array([[[2.0], [-3.0]]]))
    back = load_image(p)
    assert back.data[0, 0, 0] == 1.0
    assert back.data[0, 1, 0] == -1.0


def test_wrapping_a_frozen_canvas_allocates_less_than_one_band():
    canvas = np.zeros((640, 640, 3))
    canvas.flags.writeable = False
    band = imagecore.BAND_ROWS * canvas[0].nbytes
    tracemalloc.start()
    try:
        img = Image(canvas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert img.data is canvas
    assert peak < band


def test_image_rejects_nonfinite_and_bad_channels():
    with pytest.raises(ValueError):
        Image(np.full((2, 2, 1), np.nan))
    # in the last of three row bands
    late = np.zeros((2 * imagecore.BAND_ROWS + 1, 2, 3))
    late[-1, 1, 2] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        Image(late)
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("gap", range(3))
def test_header_comment_between_tokens(tmp_path, gap):
    # netpbm allows a `#` comment, running to the end of its line, wherever
    # whitespace may separate two header tokens
    seps = [b"\n"] * 3
    seps[gap] = b" # made by gimp\n"
    head = b"P6" + seps[0] + b"2" + seps[1] + b"1" + seps[2] + b"255\n"
    p = tmp_path / "c.ppm"
    p.write_bytes(head + bytes([0, 127, 255, 255, 127, 0]))
    img = load_image(p)
    assert img.data.shape == (1, 2, 3)
    assert np.array_equal(imagecore.quantize(img).ravel(),
                          [0, 127, 255, 255, 127, 0])


def test_header_comment_edge_cases(tmp_path):
    p = tmp_path / "c.pgm"
    # a comment may follow a token directly and several may be stacked
    p.write_bytes(b"P5\n# one\n#two\n\n1# w\n 1\n255\n\x80")
    assert imagecore.quantize(load_image(p))[0, 0, 0] == 128
    for bad in (b"P5\n# c\n1 x\n255\n\x00",   # non-numeric token
                b"P5\n1 1\n# no maxval"):        # comment runs to EOF
        p.write_bytes(bad)
        with pytest.raises(CodecError):
            load_image(p)


@pytest.mark.parametrize("dims", [b"99999999999 99999999999",
                                  b"1000000000 1000000000"])
def test_payload_larger_than_the_file_is_a_codec_error(tmp_path, dims):
    # past the largest index, and past any allocation: read() must not see them
    p = tmp_path / "big.ppm"
    p.write_bytes(b"P6 " + dims + b" 255\n" + bytes(12))
    with pytest.raises(CodecError, match="truncated payload"):
        load_image(p)


@pytest.mark.parametrize("token", [b"1_0", b"+1", b"\xd9\xa1", b"1" * 5000])
def test_header_numbers_are_ascii_digits(tmp_path, token):
    # int() would take the first two as 10 and 1
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6 " + token + b" 1 255\n" + bytes(30))
    with pytest.raises(CodecError, match="not a number"):
        load_image(p)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(codes=arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6),
                                        st.sampled_from([1, 3]))))
def test_codes_round_trip_exactly(tmp_path, codes):
    p = tmp_path / "r.pnm"
    write_image(p, imagecore.model_values(codes))
    assert p.read_bytes()[:2] == (b"P5" if codes.shape[2] == 1 else b"P6")
    assert np.array_equal(imagecore.quantize(load_image(p)), codes)


# sizes are small or 20-digit, past the largest index, so a reader that
# trusts the header fails before it allocates anything
_numbers = st.one_of(st.integers(0, 8), st.integers(10**19, 10**20 - 1),
                     st.integers(250, 260)).map(lambda n: b"%d" % n)
_tokens = st.one_of(_numbers, _numbers, st.binary(max_size=4))
_seps = st.sampled_from([b" ", b"\n", b"\t", b" # c\n", b"#", b""])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(magic=st.sampled_from([b"P5", b"P6", b"P7", b"P"]),
       parts=st.lists(st.tuples(_seps, _tokens), max_size=4),
       tail=_seps, payload=st.binary(max_size=64))
def test_fuzzed_files_load_or_raise_codec_error(tmp_path, magic, parts,
                                               tail, payload):
    p = tmp_path / "f.pnm"
    p.write_bytes(magic + b"".join(s + t for s, t in parts) + tail + payload)
    try:
        img = load_image(p)
    except CodecError:
        return
    assert img.channels == (1 if magic == b"P5" else 3)
