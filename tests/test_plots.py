import re

import pytest

from dklb.plots import HEIGHT, MARGIN_B, MARGIN_T, PALETTE, emit_plot


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_unknown_kind_rejected(tmp_path):
    p = _write(tmp_path, "a.csv", "t,l2\n0.0,1.0\n")
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot(p, "scatter3d")


def test_header_mismatch_rejected(tmp_path):
    p = _write(tmp_path, "no-t.csv", "step,l2\n0,1.0\n")
    with pytest.raises(ValueError, match="missing column"):
        emit_plot(p, "timeseries")
    p2 = _write(tmp_path, "no-ratio.csv", "sample_id,value\n0,1.0\n")
    with pytest.raises(ValueError, match="missing column"):
        emit_plot(p2, "histogram")
    p4 = _write(tmp_path, "empty.csv", "")
    with pytest.raises(ValueError, match="empty file"):
        emit_plot(p4, "timeseries")


def test_empty_rows_yield_no_data_annotation(tmp_path):
    p = _write(tmp_path, "hollow.csv", "t,l2\n")
    out = emit_plot(p, "timeseries")
    text = out.read_text()
    assert text.startswith("<svg")
    assert "no data" in text
    assert text.rstrip().endswith("</svg>")


def test_svg_is_deterministic(tmp_path):
    body = "t,l2,hs\n0.0,1.0,2.0\n0.5,0.8,1.9\n1.0,0.7,1.5\n"
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    a = emit_plot(_write(tmp_path / "one", "run.csv", body), "timeseries")
    b = emit_plot(_write(tmp_path / "two", "run.csv", body), "timeseries")
    assert a.read_bytes() == b.read_bytes()
    assert a.name == "run.svg"


def test_timeseries_structure(tmp_path):
    body = "step,t,l2,hs\n0,0.0,1.0,2.0\n1,0.5,0.9,1.8\n2,1.0,0.8,1.6\n"
    out = emit_plot(_write(tmp_path, "ts.csv", body), "timeseries")
    text = out.read_text()
    assert 'width="800"' in text and 'height="600"' in text
    assert text.count("<polyline") == 3  # step, l2 and hs series
    assert ">l2<" in text and ">hs<" in text  # legend entries


def test_histogram_structure(tmp_path):
    rows = "\n".join(f"{i},{0.1 * (i % 7)}" for i in range(30))
    out = emit_plot(_write(tmp_path, "hist.csv", "sample_id,ratio\n" + rows + "\n"),
                    "histogram")
    text = out.read_text()
    assert text.count("<rect") >= 10  # background plus bin rectangles
    assert ">ratio<" in text


def _bin_counts(svg):
    # bar heights in units of the y axis, which runs from 0 to the top count
    heights = re.findall(rf'height="([0-9.]+)" fill="{PALETTE[0]}"', svg)
    top = max(float(t) for t in re.findall(r'text-anchor="end">([^<]+)<', svg))
    return [round(float(h) / (HEIGHT - MARGIN_T - MARGIN_B) * top) for h in heights]


def test_histogram_skips_non_numeric_rows(tmp_path):
    body = "sample_id,ratio\n0,0.5\n1,0.75\nmax,0.75\n"
    out = emit_plot(_write(tmp_path, "h.csv", body), "histogram")
    text = out.read_text()
    assert "no data" not in text
    assert sum(_bin_counts(text)) == 2  # two samples; the max row is none


def test_svg_coordinates_are_finite(tmp_path):
    # a column holding nan or inf is left out rather than drawn at nan
    body = "t,l2,rate,blowup\n0.0,1.0,nan,1.0\n0.5,0.9,nan,inf\n1.0,0.8,nan,2.0\n"
    ts = emit_plot(_write(tmp_path, "ts.csv", body), "timeseries").read_text()
    assert ts.count("<polyline") == 1 and ">l2<" in ts
    body = "sample_id,ratio\n0,0.5\n1,inf\n2,nan\n3,0.75\n"
    hist = emit_plot(_write(tmp_path, "h.csv", body), "histogram").read_text()
    assert sum(_bin_counts(hist)) == 2
    for text in (ts, hist):
        assert not re.search(r"nan|inf", text, re.IGNORECASE), text


def test_explicit_output_path(tmp_path):
    p = _write(tmp_path, "named.csv", "t,l2\n0.0,1.0\n1.0,0.5\n")
    target = tmp_path / "elsewhere.svg"
    out = emit_plot(p, "timeseries", target)
    assert out == target and target.exists()


def test_no_timestamps_or_environment_leaks(tmp_path):
    p = _write(tmp_path, "clean.csv", "t,l2\n0.0,1.0\n1.0,0.5\n")
    text = emit_plot(p, "timeseries").read_text()
    assert "202" not in text  # no dates
    assert str(tmp_path) not in text  # no absolute paths
