"""Golden bytes of the confidence-set outputs.

``cset`` writes its scan as JSON, CSV and SVG, and ``plot`` renders the
SVG again from the JSON. These tests hold every byte of those files, and of
the ``cset`` summary on stdout, to sha256 digests, at lattice resolutions
from 1 to 200, with and without wave clusters, and on scans with singular
points, so that a change to the grid or its writers cannot move an output
file unnoticed.

The scans' objectives are written at 17 significant digits, so the
end-to-end digests hold for the platform they were recorded on (x86-64,
numpy 2.4); the writer digests of a stored document hold everywhere.
"""

import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest

from centest.cli import main
from centest.dataio import grid_from_dict, grid_to_csv, grid_to_json, grid_to_svg


def _survey_csv(path, n=300, seed=27):
    """A skewed survey CSV: y, x, one instrument h and a wave label, five
    rows a wave; the numbers are written with repr."""
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, n)
    y = x + 0.4 * rng.standard_normal(n) + 0.5 * (rng.standard_normal(n) ** 2 - 1.0)
    h = rng.normal(0.0, 1.0, n)
    lines = ["y,x,h,wave"] + [
        f"{a!r},{b!r},{c!r},{t // 5}"
        for t, (a, b, c) in enumerate(zip(y.tolist(), x.tolist(), h.tolist()))
    ]
    path.write_text("\n".join(lines) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (m, clustered, alpha list) -> sha256 of the cset JSON, CSV, SVG and stdout.
GOLDEN_CSET = {
    (1, False, "0.05,0.1"): (
        "a2b5287e41cb2bc0e14c9e6ccd141eff0fca18d480beedd0d13a84d2ff231d6f",
        "eb7695635d4d670114a23b70e6ebdeed8d01546c547dd0795d3af7ae6b0ea3ee",
        "2d2f4e5fc87a7bf7d59815b2de456001234d01b5bd94be644be44139f11efed5",
        "9795c20079ff077fbfa2fa138e1bfac2c932ad58a806129ae16ab022293e2248",
    ),
    (1, True, "0.05,0.1"): (
        "03f71501cee703fdadb3ae8c9c7433d1b62a2ea107c50016a6b96882ca562f21",
        "ba476bdc016cc23f5e69a6eeeda5021813af30f4b568e8ea58b297571a37df38",
        "2d2f4e5fc87a7bf7d59815b2de456001234d01b5bd94be644be44139f11efed5",
        "9795c20079ff077fbfa2fa138e1bfac2c932ad58a806129ae16ab022293e2248",
    ),
    (2, False, "0.05,0.1"): (
        "8e3ec122fb0823b60e391dcff3e41e079224939ea5b39c7e73f008cdf60ef188",
        "716e1f8ff5ccd2feaa07b75ca68f2ca586f10ba7486f52e4757aa85528445ffd",
        "40026ed94ab2deeb42b9a60ba6d5b2f1d43cef48e3a78901c1c2705d87265abc",
        "b1e74be052dad599ab36c6b8e0203e5d4b049203202d2d9455df09ae5f4a50f8",
    ),
    (2, True, "0.05,0.1"): (
        "7f3f5ea337caf0b99ecb459dcfb80075c3e74a86f8fd47314909253dcc9f18a1",
        "1940680f4b23e388b752583135b0b039687c2657004107d9382affeb0948c5a5",
        "40026ed94ab2deeb42b9a60ba6d5b2f1d43cef48e3a78901c1c2705d87265abc",
        "b1e74be052dad599ab36c6b8e0203e5d4b049203202d2d9455df09ae5f4a50f8",
    ),
    (6, False, "0.05,0.1"): (
        "360fdaf9a2f191b03744ced51d66f64ba1448ea0bb10d2237e3400ccdd525047",
        "a745dd7124e23d579ff26aef2377d637bdb89a87a926398d1af6b36f77176b1f",
        "2dc41225f3529769cf4e907b1185346898d38826c20099539bf07a672fdbffb6",
        "252644b6cd9c82004ac4c9590162a41201d29cc2118607e69eedefc87d376372",
    ),
    (6, True, "0.05,0.1"): (
        "ae39cd47b4bf3c112b6c6336b3eb6a8d59c0c2477443aa5addb05b811dd81c5c",
        "e397bb8215749fc35be06f38dea20e7c4f410fbae2d4ddea959ebf712d63a1d3",
        "2df30c1d29686323ff294e6324cf0c0a55d04cbcca914f922881a542aea97d46",
        "adf10e956169a700fa55716fef00332eb4cc1e7331d58b429ce315bf9aa58484",
    ),
    (7, False, "0.05,0.1"): (
        "44d01d3b627802392836610e0d12e32242468307932bafa85c4ca17520ea9d6f",
        "83fb7c0a84fc576e11c0e04e52b9dff3de865613e05b36f719fc048e99b7076c",
        "722edaaae5dfc29472d883d5b141934447bc970dcc32374df261653cde10ed34",
        "90374ca951e307428fc6fecb234d8591a4c302888443a5202cffe76368561660",
    ),
    (7, False, "0.1,0.05,0.01"): (
        "58a6f2d803649e9b923517e70b3d9cef4e745722aea29e654cc424b3a6be0d6b",
        "c40252741cd776595e60fe65977dbe873ea1841f36217746d58bde24999ea639",
        "92aee0b878e39de5282bd10f9b4617c1daab2a09bada99f5a74ac5e24026a50e",
        "47f1260d3201a71b98e6df1f8627383bdfded95dcecb1a37a916e4e850a8305c",
    ),
    (7, True, "0.05,0.1"): (
        "612aad969befecdf5f3facdb3f3c428fc2a1aee853137d1c0cedb2ef056a19d1",
        "ec4325423eaae542b279e66651536dc503365e1a41cd36aed0ff0d47bdd015ca",
        "7410f0f2b83d8e82146ffa0c772410843d21c76a19b80680abfbdf95c160df95",
        "68c445803e5f31392cc6b8b31b8d6ef834b55a06608d473052ba7a8637fbac75",
    ),
    (7, True, "0.1,0.05,0.01"): (
        "bb5f5c0dd0169b76583780bb92c9802548c13036ce82123cd312f7c904084c2d",
        "d46155f921676ed5755f9a5101afd41bf5d42343df4ec4dcbd64e44a9aca1420",
        "c53bab025722b0162497df32b3dacacd761ac0aad1b2aaee6b8432c7a815a042",
        "1971a22140f0a845356aa9a193113d95a001beac6100c2c9cd27a810fa719756",
    ),
    (50, False, "0.05,0.1"): (
        "ca478bd632e0ab139655e3a50a4d32a1a75be52f24f7b3cfc452834a2585cfad",
        "6a4bf66b3b8fb561ccebaf68ee148efc63df26bd83ed3551be07c7b354747fb9",
        "335cecaed1290d060b748102c4651c09270cbd3c9f94ba667adfbc0ad47541d1",
        "5427ef42ad15bf88aedd654237875fedcad434c798cd0d93f8010ca228272dbf",
    ),
    (50, True, "0.05,0.1"): (
        "d975b5a21f7475e26a3a58f2d047b7847d58e553658d9cc65cda010805acfca6",
        "45e5fd919bf349ba6b1aa3a5a1ea9fdfb4809994e686a8487f3cd9f3eee71149",
        "493b030357708908dd07bdd567bd62f2071e25fdf7e2f9348270190bb583714d",
        "e95414f81442b73a52628d912945d59dbc3de62a6643a81f7b3cb1c55573a1c4",
    ),
    (200, False, "0.05,0.1"): (
        "823214ed112fc5c644038b6d57f2dde93fcdc9db84dc8a717f53e0d70d86b54f",
        "e486ee6a1fe6b2875ef02c6c18ca64741e452f5512902b0d48353fd0f48436ad",
        "bce0b512d551b05d45fdb30c025c8caa5b73e1e2f1c428038500246082fb8d1f",
        "73d18c8ef23f66fd49b68cf047e10f6332bdc9c027c45a43aa4d335ccc86596e",
    ),
    (200, True, "0.05,0.1"): (
        "1f23817e7804640038115accf693b6e6accd9ac7c246eb4a66e2e5d4d7cc95c2",
        "74c925656efc359f27026dc640f1b39a7459efcb69d995d53e136dce41f9b0e8",
        "c0432fe5d98248831a622f39dd5a9fcdb63071f353d6c1cd0b746d03c3531d30",
        "626563dd128abe65097b73175b32393e9aa58458efd62d65636c2764f24aa561",
    ),
}


@pytest.mark.parametrize("m, clustered, alphas", sorted(GOLDEN_CSET))
def test_cset_and_plot_bytes_match_recorded_digests(tmp_path, m, clustered, alphas):
    data = tmp_path / "survey.csv"
    _survey_csv(data)
    files = {ext: tmp_path / f"scan.{ext}" for ext in ("json", "csv", "svg")}
    argv = ["cset", "--input", str(data), "--instruments", "h", "--with-const",
            "--grid-m", str(m), "--alpha", alphas,
            "--out-json", str(files["json"]), "--out-csv", str(files["csv"]),
            "--out-svg", str(files["svg"])]
    if clustered:
        argv += ["--cluster", "wave"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    digests = (*(_sha(files[ext].read_bytes()) for ext in ("json", "csv", "svg")),
               _sha(out.getvalue().encode()))
    assert digests == GOLDEN_CSET[m, clustered, alphas]
    replot = tmp_path / "replot.svg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["plot", "--in-json", str(files["json"]),
                     "--out-svg", str(replot)]) == 0
    assert replot.read_bytes() == files["svg"].read_bytes()


def _singular_csv(path, case):
    """A survey CSV whose scan has singular points: one shared wave, which
    makes every Sigma(theta) rank one, or errors that all but one lie
    outside the biweight window, which leaves the mode vertex alone
    singular."""
    if case == "one-wave":
        x = np.array([1.0, -1.0, 0.5, 2.0])
        y = np.zeros(4)
    else:
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        e = rng.choice([-1.0, 1.0], 40) * (2.0 + rng.random(40))
        e[5] = 0.1
        y = x - e
    lines = ["y,x,h,wave"] + [f"{a!r},{b!r},{b!r},1" for a, b in zip(y.tolist(), x.tolist())]
    path.write_text("\n".join(lines) + "\n")


# case -> its cset options, and the sha256 of the cset JSON, CSV, SVG and
# stdout.
GOLDEN_SINGULAR = {
    "mode-vertex": (["--bandwidth", "0.5", "--kernel", "biweight", "--grid-m", "4"], (
        "c41dbf258268bb45e287549797b15416e3387d8cb268c15e4d04a56db828cdd8",
        "c2c0fe4a5a43f1fc855ab4cd916a82b23761abccf9a6932c5bb44e84c8b4e0cf",
        "1eee489e418515e9e84759b5f804aff13310be13da70b94fd216d1d1d673cdb7",
        "d81e21a0ee908632c0097f6d3b21929e76f328c110af51d24cee912fd0aec213",
    )),
    "one-wave": (["--cluster", "wave", "--bandwidth", "1.0", "--grid-m", "6"], (
        "50d53d645de2db770596bf9361da9b35fdfea32123cb7316538860430e523099",
        "1befc4dd76eb977af2b5bd7002a07093aa518791298db77447fc0d56f86f3fc4",
        "a262e1057d64a8f05d16da20bf7b5784acbbabb07f550e083cedb6910df46f37",
        "304e8028a2c0b32bf52c1ce2d607585edc0b2b2fd3cb8b7defdd4f252c15a031",
    )),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SINGULAR))
def test_singular_points_bytes_match_recorded_digests(tmp_path, case):
    data = tmp_path / "survey.csv"
    _singular_csv(data, case)
    flags, want = GOLDEN_SINGULAR[case]
    files = {ext: tmp_path / f"scan.{ext}" for ext in ("json", "csv", "svg")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["cset", "--input", str(data), "--instruments", "h", "--with-const",
                     *flags, "--out-json", str(files["json"]),
                     "--out-csv", str(files["csv"]), "--out-svg", str(files["svg"])]) == 0
    digests = (*(_sha(files[ext].read_bytes()) for ext in ("json", "csv", "svg")),
               _sha(out.getvalue().encode()))
    assert digests == want
    assert json.loads(files["json"].read_text())["points"][0]["note"] is not None


def _noted_document():
    """A stored m = 2 scan with three levels: four singular points, whose
    notes need JSON escapes and, two of them, CSV quotes, and two
    scored ones, one outside the 90% set only. df = 2, so each p-value is
    exp(-objective / 2)."""
    notes = [None, 'a "quoted" word', "back\\slash", "two\nlines", "S_T ≥ Q, θ ∉ Θ",
             None]
    scored = {0: (1.5, 0.4723665527410147), 5: (5.5, 0.06392786120670757)}
    points = []
    for n, ((i, j), note) in enumerate(zip(
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)], notes)):
        objective, p_value = scored.get(n, (None, None))
        points.append({
            "index": [i, j], "theta": [i / 2, j / 2, (2 - i - j) / 2],
            "objective": objective, "p_value": p_value, "note": note,
            "member": {"0.01": objective is not None,
                       "0.05": objective is not None,
                       "0.1": objective is not None and objective <= 4.605170185988091},
        })
    return {"kind": "confidence_set", "schema": 1, "resolution": 2,
            "alpha_levels": [0.1, 0.05, 0.01], "bandwidth": 0.5, "df": 2,
            "n_obs": 10, "points": points}


# the CSV digest was recorded again when notes became quoted CSV fields
GOLDEN_WRITERS = (
    "c116dfd249c22ab77fe4eefa014d78a9420c9f0fb9e29bcaeef802878acf3368",
    "bda16449069c1d04073f29672724dff20aab1bff16414d26145d5a9c82ffe249",
    "0bed6ce3178dca8b68dcd20dbf6b9901bb910a44b1e3e66c163951f956ba926f",
)


def test_writers_of_a_stored_scan_match_recorded_digests():
    grid = grid_from_dict(json.loads(json.dumps(_noted_document())))
    digests = tuple(_sha(writer(grid).encode("utf-8"))
                    for writer in (grid_to_json, grid_to_csv, grid_to_svg))
    assert digests == GOLDEN_WRITERS


def test_csv_notes_read_back_as_one_field():
    # csv reads the stored scan back as its six points, each as wide as the
    # header, with every note as it was written
    doc = _noted_document()
    rows = list(csv.reader(io.StringIO(grid_to_csv(grid_from_dict(doc)), newline="")))
    header, *points = rows
    assert len(points) == len(doc["points"])
    assert {len(row) for row in points} == {len(header)}
    assert [row[header.index("note")] for row in points] == [
        point["note"] or "" for point in doc["points"]]
