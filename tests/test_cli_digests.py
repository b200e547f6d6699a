"""Frozen digests of what the command line writes.

Each case runs ``cli.dispatch`` in-process in a fresh directory that holds
only the input space documents, then records the exit code, stderr, the
sha256 of stdout and the sha256 of every file the command left behind.
The frozen values pin today's bytes: a refactor of how spaces are derived,
how solver reports are built or how files are written must leave all of
them unchanged.
"""

import hashlib
import json
import os

import pytest

from pmtk.cli import dispatch

SQ_DIFF = {"op": "power", "base": {"op": "absdiff"}, "q": 2.0}


def _space(oracle, K=1.0, n=1, cls="KPMS", domain=((0.0, 1.0, False, False),)):
    return {"oracle": oracle, "K": K, "n": n, "domain": [list(b) for b in domain], "class": cls}


# input documents, written as plain JSON so no pmtk writer is involved
SPACES = {
    "line.json": _space({"op": "absdiff"}, cls="Metric"),
    "max.json": _space({"op": "max"}, cls="PartialBMetric"),
    "max2.json": _space({"op": "max"}, n=2, cls="KPMS"),
    "max-metric.json": _space({"op": "max"}, cls="Metric"),
    "sq1.json": _space(SQ_DIFF, cls="KPMS"),
    "sq2.json": _space(SQ_DIFF, K=2.0, cls="KPMS"),
    "quartic2.json": _space({"op": "power", "base": {"op": "absdiff"}, "q": 4.0}, K=2.0, cls="KPMS"),
    "flip.json": _space({"op": "affine", "arg": {"op": "absdiff"}, "scale": -1.0, "offset": 1.0}),
    "const.json": _space({"op": "const", "value": 1.0}),
    "wide.json": _space({"op": "absdiff"}, cls="Metric", domain=((0.0, 2.0, False, False),)),
}

BANACH = {"T1": {"kind": "scale", "factor": 0.5}, "T2": {"kind": "scale", "factor": 0.5}, "k": 0.5, "x0": 1.0}
FAMILY = {
    "family": {"kind": "geometric", "base": 5.0},
    "delta": {"kind": "const", "value": 0.25},
    "scheme": "kannan",
    "gauge": "identity",
    "gate": {"kind": "alpha-series", "horizon": 100},
    "x0": 1.0,
}


def _solve(scheme, cfg, *extra):
    return ["solve", "--scheme", scheme, "--space", "line.json", "--config", json.dumps(cfg),
            "--report-out", "report.json", "--trace-out", "trace.csv", *extra]


CASES = {
    "fixtures-run-all": ["fixtures", "run", "all", "--out", "fx"],
    "check-classify-upto": ["check", "max2.json", "--classify", "--chain-mode", "upto", "--out", "check.json"],
    "check-failed-claim": ["check", "max-metric.json", "--seed", "5", "--random-count", "300"],
    "transform-pt": ["transform", "max.json", "--kind", "pt", "--out", "out.json"],
    "transform-pt-K2": ["transform", "sq2.json", "--kind", "pt", "--out", "out.json"],
    "transform-pt-K2-warning": ["transform", "quartic2.json", "--kind", "pt", "--out", "out.json"],
    "transform-basepoint": ["transform", "line.json", "--kind", "basepoint", "--x0", "0.5", "--out", "out.json"],
    "transform-dp": ["transform", "max.json", "--kind", "dp", "--out", "out.json"],
    "transform-power": ["transform", "line.json", "--kind", "power", "--q", "2", "--out", "out.json"],
    "transform-sum": ["transform", "max.json", "--kind", "sum", "--space2", "line.json", "--out", "out.json"],
    "transform-pt-pm2-fails": ["transform", "flip.json", "--kind", "pt", "--out", "out.json"],
    "transform-basepoint-D1-fails": ["transform", "max.json", "--kind", "basepoint", "--x0", "0.5",
                                     "--out", "out.json"],
    "transform-basepoint-outside": ["transform", "line.json", "--kind", "basepoint", "--x0", "2",
                                    "--out", "out.json"],
    "transform-basepoint-no-x0": ["transform", "line.json", "--kind", "basepoint", "--out", "out.json"],
    "transform-dp-polygon-fails": ["transform", "sq1.json", "--kind", "dp", "--out", "out.json"],
    "transform-power-pm1-fails": ["transform", "const.json", "--kind", "power", "--q", "2", "--out", "out.json"],
    "transform-power-polygon-fails": ["transform", "sq2.json", "--kind", "power", "--q", "2", "--out", "out.json"],
    "transform-power-q-below-one": ["transform", "line.json", "--kind", "power", "--q", "0.5", "--out", "out.json"],
    "transform-sum-second-fails": ["transform", "max.json", "--kind", "sum", "--space2", "max.json",
                                   "--out", "out.json"],
    "transform-sum-domains-differ": ["transform", "max.json", "--kind", "sum", "--space2", "wide.json",
                                     "--out", "out.json"],
    "series-terms": ["series", "--terms", "0.5,0.25,0.125,0.0625", "--out", "series.json"],
    "series-deltas": ["series", "--deltas", "0.1,0.2,0.3,0.05", "--s", "0.5", "--with-2s-factor",
                      "--grid", "0.5,0.9"],
    "solve-banach-pair": _solve("banach-pair", BANACH),
    "solve-banach-pair-power": _solve("banach-pair", dict(BANACH, k=0.3, r1=2, r2=3)),
    "solve-banach-pair-violation": _solve("banach-pair", dict(BANACH, T1={"kind": "scale", "factor": 0.4},
                                                               k=0.2, halt_on_violation=False)),
    "solve-kannan-pair": _solve("kannan-pair", dict(BANACH, T1={"kind": "affine", "scale": 0.25},
                                                    T2={"kind": "const", "value": 0.0}, k=0.25)),
    "solve-admissible": _solve("admissible", {
        "T": {"kind": "scale", "factor": 0.25},
        "alpha": {"kind": "const", "value": 2.0},
        "beta": {"kind": "const", "value": 0.5},
        "C_alpha": 2.0,
        "C_beta": 0.6,
    }, "--x0", "1.0"),
    "solve-family-series-gate": _solve("family", FAMILY),
    "solve-family-kannan3-psi": _solve("family", dict(FAMILY, scheme="Kannan-3", psi="max", gamma=0.1,
                                                      gate={"kind": "relaxed-cn", "horizon": 50})),
    "solve-family-fixture": _solve("family", {
        "family": {"kind": "fixture", "name": "E4-relaxed-family"},
        "delta": {"kind": "fixture", "name": "E4-relaxed-family"},
        "gauge": "sqrt",
        "x0": 1.0,
    }),
    "solve-family-gate-rejects": _solve("family", dict(FAMILY, delta={"kind": "const", "value": 0.45})),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(argv, directory, capsys) -> dict:
    """Run one command in directory and digest everything it produced."""
    for name, doc in SPACES.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(doc, fh)
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    seen = {"exit": code, "stderr": captured.err, "stdout": _sha(captured.out.encode())}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.relpath(os.path.join(root, name), directory)
            if path not in SPACES:
                with open(os.path.join(root, name), "rb") as fh:
                    seen[path] = _sha(fh.read())
    return seen


# exit code, stderr and sha256 digests of stdout and of each written file
FROZEN = {'check-classify-upto': {'check.json': '9f129823685d10a961e75e634a66c859dff7d7f96d9e4b95d9bba245e0338cf6',
                         'exit': 0,
                         'stderr': '',
                         'stdout': '9f129823685d10a961e75e634a66c859dff7d7f96d9e4b95d9bba245e0338cf6'},
 'check-failed-claim': {'exit': 2,
                        'stderr': '',
                        'stdout': '0a548c055ccd3da4d7596c3b19cf90fc15337c7dcc733dd158a5b8c7247692ca'},
 'fixtures-run-all': {'exit': 0,
                      'fx/E1-maxpow.json': 'f60b3fa4c75f9559954a5b50881b512c95dd4a5c01b16a226788d2c106e4f329',
                      'fx/E2-open-interval.json': '05f1b4cb49096782041afe8e02baf947f601781a0962d80e08a770b9b5d624f7',
                      'fx/E3-kannan-family.json': '17043ecb9d8a46b8704d669243f8396efa65acd1c69a0028d4bd0b58b1608653',
                      'fx/E4-relaxed-family.json': 'c1342bc2384ec3bea662fac21c235a9cc35c887359b9aabaf82379e27d95a74b',
                      'fx/E5-chatterjea-family.json': '1e405341a9998e8bc087af075b3e1a36fcc0f91f43ca423a248c19822ee862f4',
                      'stderr': '',
                      'stdout': '5da3edc6d8f4458f88e64e6abd8aa75b70cadea753b463f2a00ac9ede488ff9d'},
 'series-deltas': {'exit': 3,
                   'stderr': '',
                   'stdout': 'ccc51926ed780469edeaedecf44b10bef67123b49b315d19e9428f6551adff88'},
 'series-terms': {'exit': 0,
                  'series.json': '8ecfb6b96d1415437fd99be767e6cca744cc7ba10b27cb513a7c9939fbe6cbc0',
                  'stderr': '',
                  'stdout': '8ecfb6b96d1415437fd99be767e6cca744cc7ba10b27cb513a7c9939fbe6cbc0'},
 'solve-admissible': {'exit': 0,
                      'report.json': 'fe522b883d44b66605eea9fa26f72b54ca4f4bd617a6e8d5477ef1e1db8951ee',
                      'stderr': '',
                      'stdout': 'fe522b883d44b66605eea9fa26f72b54ca4f4bd617a6e8d5477ef1e1db8951ee',
                      'trace.csv': '2345329d7f9b55aff7a85c292253834c1f6db99acd6c7c972abf97c926d7e5e2'},
 'solve-banach-pair': {'exit': 0,
                       'report.json': 'acac19774cbe8140dcdcfc90729ddf21763b578bcb247e257427c6a93a6d565f',
                       'stderr': '',
                       'stdout': 'acac19774cbe8140dcdcfc90729ddf21763b578bcb247e257427c6a93a6d565f',
                       'trace.csv': '30b456fabc8944b12532f183672e680b08da2e6468efe949fd37fae91f9a8894'},
 'solve-banach-pair-power': {'exit': 0,
                             'report.json': 'dc1edc3f2ad100fea5444bf7991403aa3e090722585832375ae86322b2d782cc',
                             'stderr': '',
                             'stdout': 'dc1edc3f2ad100fea5444bf7991403aa3e090722585832375ae86322b2d782cc',
                             'trace.csv': 'cdfd488f070255e21b45abd2205d73a02d400180d52efaa3dfac14d727d5d866'},
 'solve-banach-pair-violation': {'exit': 2,
                                 'report.json': 'bf8261acbf3659e58bb85df771bd45de49cf82b5248bf506279b3ce1f5c3ef5a',
                                 'stderr': '',
                                 'stdout': 'bf8261acbf3659e58bb85df771bd45de49cf82b5248bf506279b3ce1f5c3ef5a',
                                 'trace.csv': '6ca75394eb23e4430c0565787f0db4c37afdefc7fbb74bf0ff65f25bff3e5601'},
 'solve-family-fixture': {'exit': 3,
                          'report.json': 'affc57a8168dd0564aff15afdb994f3600b2568e29ddc5a2b1a64b0371b770f6',
                          'stderr': '',
                          'stdout': 'affc57a8168dd0564aff15afdb994f3600b2568e29ddc5a2b1a64b0371b770f6',
                          'trace.csv': 'f99342484f3eb28b736154868bc5379269f94f1f9058cf69ca12268abb36c55b'},
 'solve-family-gate-rejects': {'exit': 65,
                               'stderr': "error: averaged-series gate rejected the family: {'kind': 'alpha-series', "
                                         "'status': 'refuted_at_horizon', 'lambda': None, 'n_lambda': None, "
                                         "'horizon_checked': 100, 'witness_L': 100}\n",
                               'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'solve-family-kannan3-psi': {'exit': 0,
                              'report.json': '3261efd0d485deab7a70b3da4855857f9ba459af12a941b25dd69e3feecb9ef6',
                              'stderr': '',
                              'stdout': '3261efd0d485deab7a70b3da4855857f9ba459af12a941b25dd69e3feecb9ef6',
                              'trace.csv': '4861c68163a07bd70b4438c177d6e92721300497289a1bd5c4f2b25bb7765a3c'},
 'solve-family-series-gate': {'exit': 0,
                              'report.json': '556d4e2892f7d154c3757a497a17e074997afe53ae4ce054b1ea6ad84b070a2f',
                              'stderr': '',
                              'stdout': '556d4e2892f7d154c3757a497a17e074997afe53ae4ce054b1ea6ad84b070a2f',
                              'trace.csv': '4f3368ac238c002cd6a17085e56d4b307f3ee30b49e175b90db002100b9aea42'},
 'solve-kannan-pair': {'exit': 0,
                       'report.json': '2fa3290b11864bb4f364bf7fa1a15c02935f452f92d96f7b1b07782562c66b96',
                       'stderr': '',
                       'stdout': '2fa3290b11864bb4f364bf7fa1a15c02935f452f92d96f7b1b07782562c66b96',
                       'trace.csv': '5a5f171d78922560835bdfb1e3d22b0fcc59de54f98b3d835570c1858c79edf5'},
 'transform-basepoint': {'exit': 0,
                         'out.json': '07274336760fd1e00998c326e8207ea43f8a3c28a8551aeebcf005e00b14b7f3',
                         'stderr': '',
                         'stdout': 'e20b18aaabedf9f50c4deba4dbea62cf343a246c4b681ab77413f662f297afe2'},
 'transform-basepoint-D1-fails': {'exit': 65,
                                  'stderr': 'error: the basepoint construction needs axiom D1 at coefficient 1; '
                                            'violated at ((0.00392156862745098,),) (lhs=0.00392156862745098, '
                                            'rhs=0.0)\n',
                                  'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-basepoint-no-x0': {'exit': 65,
                               'stderr': 'error: the basepoint construction needs --x0\n',
                               'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-basepoint-outside': {'exit': 65,
                                 'stderr': 'error: basepoint (2.0,) outside the domain\n',
                                 'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-dp': {'exit': 0,
                  'out.json': 'a42f7419b6b82c32fc3860a1b4fa2945eac46ecc71d4569dee064fbb9d59fced',
                  'stderr': '',
                  'stdout': 'd3673fceb43f7416f92808547da63eb04e436a01751d9f5a124ff2c69d915ae5'},
 'transform-dp-polygon-fails': {'exit': 65,
                                'stderr': 'error: the induced unweighted distance needs the polygon inequality on '
                                          'the input; violated at ((0.3333333333333333,), (0.16666666666666666,), '
                                          '(0.0,)) (lhs=0.1111111111111111, rhs=0.05555555555555555)\n',
                                'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-power': {'exit': 0,
                     'out.json': '846b2bc241c621680361e1101ec612fb55bdab27d1973729d0c1b2e142406d5b',
                     'stderr': '',
                     'stdout': '3c5e74265629bef68aa34105a6a46f7bfb21062d17c9426a6e4a4642a6f7dd88'},
 'transform-power-pm1-fails': {'exit': 65,
                               'stderr': 'error: the power construction needs axiom pm1 on the input; violated at '
                                         '((0.058823529411764705,), (0.0,)) (lhs=1.0, rhs=1.0)\n',
                               'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-power-polygon-fails': {'exit': 65,
                                   'stderr': 'error: the power construction needs the polygon inequality on the '
                                             'input; violated at ((0.3333333333333333,), (0.16666666666666666,), '
                                             '(0.0,)) (lhs=0.1111111111111111, rhs=0.05555555555555555)\n',
                                   'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-power-q-below-one': {'exit': 65,
                                 'stderr': 'error: power exponent must be >= 1, got 0.5\n',
                                 'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-pt': {'exit': 0,
                  'out.json': '19ee80f8cf38702c08d809859153ae6cbb8130b7be199c6cab6297d35a436ed8',
                  'stderr': '',
                  'stdout': 'ae51e770861af57a628ce8fbd85eae3680619970c03e6d55a8964f6ccf54bdb5'},
 'transform-pt-K2': {'exit': 0,
                     'out.json': 'a3784c38295b28ce580ac9ebfe1a9c5683d1e7f736aee934f1eae306bbd6a682',
                     'stderr': '',
                     'stdout': '538376daaea4b053fde23c2b15f15a2e8ff8fbecc4d41749b968f4505278ac61'},
 'transform-pt-K2-warning': {'exit': 0,
                             'out.json': 'efb9d6f9df5d1c68a0abad28061678ab552b0e54f5d90ce0b881c3f92c19c2fe',
                             'stderr': '',
                             'stdout': 'cef7ec4f2dcf9b23e37d4e2ab95182eaeb849e0af98fb6e78f79393808e6fdbf'},
 'transform-pt-pm2-fails': {'exit': 65,
                            'stderr': 'error: the weighted-to-unweighted transform needs axiom pm2 on the input; '
                                      'violated at ((0.058823529411764705,), (0.0,)) (lhs=1.0, '
                                      'rhs=0.9411764705882353)\n',
                            'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-sum': {'exit': 0,
                   'out.json': '5a0d2520311ae35c0fb06cc5e13d57cd71fb9b507ab9988512b474ce12bf5e17',
                   'stderr': '',
                   'stdout': 'b396c64bc96e6b1cb8bcb2de93097f5dde10d7f04ac303ba99f073ee1e4d3565'},
 'transform-sum-domains-differ': {'exit': 65,
                                  'stderr': 'error: summands must share one domain\n',
                                  'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'},
 'transform-sum-second-fails': {'exit': 65,
                                'stderr': 'error: the sum construction needs axiom D1 on the second input; violated '
                                          'at ((0.00392156862745098,),) (lhs=0.00392156862745098, rhs=0.0)\n',
                                'stdout': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_frozen_digests(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PMT_SEED", raising=False)
    assert observe(CASES[case], str(tmp_path), capsys) == FROZEN[case]
