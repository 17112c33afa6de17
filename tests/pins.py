"""Pinned stdout: one entry per command whose output must not drift.

This is the one list of exact ``sg`` stdouts the tests hold; the only other
is test_cli's span under ``-X int_max_str_digits=640``, a flag no pin sets.
Each pin names a command, the Cayley table it reads (if any), its argv, the
sha256 of its stdout, its timeout in seconds and its exit code.  A pin with
a table runs ``sg <argv>`` with the table written to ``argv[1]`` in the
working directory; a pin with no argv runs the function of its name in
SCRIPTS, as ``python tests/pins.py NAME``.  The path is part of stdout, so
the digests pin it too.

``python tests/pins.py`` runs every pin in a subprocess under each of
FLAG_SETS, with its table written into a temporary directory, and exits 1
naming each pin whose digest or exit code differs or that times out.
``tests/test_cli.py`` runs the fast pins (``is_fast``) in-process through
``cli.main``.  Adding a pin is one entry here.  pytest does not collect this
file; test files import it as ``import pins``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple, Optional

from sgdsc import finite, infinite, relations

import constructions


class Table(NamedTuple):
    order: int
    build: Callable[[], finite.FiniteSemigroup]


class Pin(NamedTuple):
    name: str
    table: Optional[Table]
    argv: Optional[tuple[str, ...]]
    sha256: str
    timeout: float
    code: int = 0


# Flag sets every pin runs under: warnings as errors, and also without
# site-packages (zero runtime dependencies) under -O (no check relies on assert)
FLAG_SETS = (("-W", "error"), ("-S", "-O", "-W", "error"))


def is_fast(pin: Pin) -> bool:
    """The CLI pins on no table or on a table of order at most 256."""
    return pin.argv is not None and (pin.table is None or pin.table.order <= 256)


@functools.cache
def _table_json(table: Table) -> str:
    s = table.build()
    if s.order != table.order:
        raise ValueError(f"table built with order {s.order}, declared {table.order}")
    return constructions.to_json(s)


def write_table(table: Table, path: str) -> None:
    """Write the table as JSON, built once per process for all its pins."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_table_json(table))


def _relabeled(build):
    """build()'s table relabeled x -> 7x + 3 (mod n)."""
    def relabeled():
        s = build()
        return constructions.relabel(s, [(7 * x + 3) % s.order for x in range(s.order)])
    return relabeled


_C = finite.cyclic_group
_C4xC4 = Table(16, _relabeled(lambda: constructions.direct_product(_C(4), _C(4))))
_REES = Table(16, _relabeled(lambda: constructions.rees_matrix(
    constructions.ReesSpec(_C(4), 2, 2, ((0, 1), (2, 3))))))
_RZ4xC4 = Table(16, _relabeled(lambda: constructions.direct_product(
    constructions.right_zero(4), _C(4))))
_C16_ZERO_RELABELED = Table(17, _relabeled(lambda: constructions.adjoin_zero(_C(16))))
_CHAIN2xC8 = Table(16, _relabeled(lambda: constructions.direct_product(
    constructions.min_semilattice(), _C(8))))
_C255_ONE_RELABELED = Table(256, _relabeled(lambda: constructions.adjoin_identity(_C(255))))
_C16_ZERO = Table(17, lambda: constructions.adjoin_zero(_C(16)))
_C255_ONE = Table(256, lambda: constructions.adjoin_identity(_C(255)))
_C1023_ONE = Table(1024, lambda: constructions.adjoin_identity(_C(1023)))
_RZ127_ONE = Table(128, lambda: constructions.adjoin_identity(constructions.right_zero(127)))
_LZ127_ONE = Table(128, lambda: constructions.adjoin_identity(constructions.left_zero(127)))
_LZ256 = Table(256, lambda: constructions.left_zero(256))
_RZ1024 = Table(1024, lambda: constructions.right_zero(1024))
_NULL1024 = Table(1024, lambda: constructions.null_semigroup(1024))

# the word g of the short byleen pins
_G = "b(0,s0) s1 a(0,s0)"
# the length-32 words of the byleen span pins: B s1 A with B and A differing
# from the other word's at every letter
_A32 = " ".join(f"a({i % 3},s{i % 2})" for i in range(32))
_B32 = " ".join(f"b({i % 3},s{(i + 1) % 2})" for i in range(32))

PINS = (
    # shapes of the check-large benchmark at order 16-17, and C255 with an
    # identity (its ideal witness has 65 281 pairs), relabeled x -> 7x + 3
    Pin("C4xC4-check", _C4xC4, ("check", "C4xC4.json", "--brute"),
        "77bbd98f6fe9e03ebf56ea3aa8fb1ca21fa138446e27a77ee164f3a31156630f", 30),
    Pin("C4xC4-witness", _C4xC4, ("witness", "C4xC4.json"),
        "b9e0c7adf38e2d449c297ac090d7b60f85e8b21bdfcbccba8e861f6fb153b52e", 30, 1),
    Pin("rees-C4-2x2-check", _REES, ("check", "rees-C4-2x2.json", "--brute"),
        "2627291f0683130ee9b5786f1f476c567571abc43b985faec91ba931b9ba551c", 30),
    Pin("rees-C4-2x2-witness", _REES, ("witness", "rees-C4-2x2.json"),
        "8abb6632627c87dfe0de93a25733a4bc22f4d69e50d7a8e496aafa2a48fc6570", 30),
    Pin("RZ4xC4-check", _RZ4xC4, ("check", "RZ4xC4.json", "--brute"),
        "a0b67069367f0a6ac59aa9a9c6a9af951475516dd97edc09b106d514c48231a6", 30),
    Pin("RZ4xC4-witness", _RZ4xC4, ("witness", "RZ4xC4.json"),
        "80f95955ce7b2703ca2f59a50ca0ae0b802bca6ff8913e9243c48adc916368ec", 30),
    Pin("C16-zero-check", _C16_ZERO_RELABELED, ("check", "C16-zero.json", "--brute"),
        "75fdacea465409bb8f125a52131fbbcd3faf482406fc0b669d9b85f7bfba2997", 30),
    Pin("C16-zero-witness", _C16_ZERO_RELABELED, ("witness", "C16-zero.json"),
        "4aacbbfac6a6a83e19f6145d3d27fa9d2c1ec368e9b890180364c92b93ebca35", 30),
    Pin("chain2xC8-check", _CHAIN2xC8, ("check", "chain2xC8.json", "--brute"),
        "b1050e3fd5edb3451da2bbf034285ed8d768697e706be3a481a21de527aa5280", 30),
    Pin("chain2xC8-witness", _CHAIN2xC8, ("witness", "chain2xC8.json"),
        "232cf1e231cd9c53e55080f3710416085299db51e6f3068626d71bfce30c0853", 30),
    Pin("C255^1-check", _C255_ONE_RELABELED, ("check", "C255^1.json", "--brute"),
        "a723a74e4f980f53582f6a96c55d1d413a6a8d0e6fcc1f77606a51e4304cffd9", 30),
    Pin("C255^1-witness", _C255_ONE_RELABELED, ("witness", "C255^1.json"),
        "4458b92a41b937ef3a8027baa4f82c6e63e38c6380a741b78ca73c4eca5d8f1a", 30),
    # the same shapes unrelabeled, C16 with a zero and C255 with an identity
    Pin("c16-zero-check", _C16_ZERO, ("check", "c16-zero.json", "--brute"),
        "a3471575a910676667e1f054a2844d855b69758e9e62f0909925234d485f4925", 30),
    Pin("c16-zero-witness", _C16_ZERO, ("witness", "c16-zero.json"),
        "4352a01327bbb317a8096de10b75d1e659fd3717a6c5ab8f768fa662471755f3", 30),
    Pin("c255-one-witness", _C255_ONE, ("witness", "c255-one.json"),
        "89bdb883eaaab6ba679fc0b3726e2dd2f7e5400fa1f3bd9dca2177d4e43fe3e4", 30),
    Pin("c255-one-check", _C255_ONE, ("check", "c255-one.json", "--brute"),
        "7d5fa582f8af14956df0c22006fcc05a24212c45e63e58c200b63c1a9b256e71", 30),
    # MAX_ORDER with a kernel of 1023 elements: the ideal witness has about a
    # million pairs
    Pin("c1023-one-witness", _C1023_ONE, ("witness", "c1023-one.json"),
        "eb22f059b86a346b982b7061a88984d2373980f565489ecf353612f5952450c8", 30),
    Pin("c1023-one-check", _C1023_ONE, ("check", "c1023-one.json", "--brute"),
        "749fd63c2dfe436bf64c6c87eaf7d7585a5ac549f9c13b324a826643a89ffb14", 30),
    # high rank: every element but the identity is a generator
    Pin("rz127-one-witness", _RZ127_ONE, ("witness", "rz127-one.json"),
        "ea26b0d2af3ba1218933972ef7e443f84cf50a1d717a3535cf945dd2a2838a59", 10),
    Pin("rz127-one-check", _RZ127_ONE, ("check", "rz127-one.json", "--brute"),
        "ad164373af250ffe8b8e9cbf225b5dab34aff7251af47fe78d690d22a5082e27", 10),
    Pin("lz127-one-witness", _LZ127_ONE, ("witness", "lz127-one.json"),
        "222c4015f741bcd6f4269415db34fcb4e7ad840e5f169a657d732b801e9758a1", 10),
    Pin("lz127-one-check", _LZ127_ONE, ("check", "lz127-one.json", "--brute"),
        "2139f86ea2c9e1600ca4b3ae337ec0686ff89c09b15fa3ebb1ae1760a6c348c5", 10),
    Pin("lz256-witness", _LZ256, ("witness", "lz256.json"),
        "cd6528db7c36caa10752f4a7ccbcaba97879607d3730e2bb6c87bdc52fc7c0cb", 10),
    Pin("lz256-check", _LZ256, ("check", "lz256.json", "--brute"),
        "f793233b915ff17798f2bbfae09da0548909a3cba0de342f68807a0f6b347cf7", 10),
    # MAX_ORDER with one distinct row: Light's test compares one row per generator
    Pin("rz1024-witness", _RZ1024, ("witness", "rz1024.json"),
        "74f00e6c998e7fcd35d739797669b8842129d98c4d7dfe38a4ad03381e47886f", 10),
    Pin("rz1024-check", _RZ1024, ("check", "rz1024.json", "--brute"),
        "20d08f1ae301d17428aad4e884ce1b21dedca663308104bfa3de4dff77510b93", 10),
    Pin("null1024-witness", _NULL1024, ("witness", "null1024.json"),
        "4699e87e7225937bc6fcef4bd3e707c0212769465e8a8cfd4b89e7be4662dbbf", 10),
    Pin("null1024-check", _NULL1024, ("check", "null1024.json", "--brute"),
        "0a38c0436d95ed8301c3e3cdbae9ba30a4e407800f5838902e28c57a5544eafe", 10),
    # the model suites
    Pin("bicyclic", None, ("models", "bicyclic"),
        "7afbd430cf5f2ea0879c8d381b0bac2272084924f3e99d7b424722b47b6a7fd3", 10),
    Pin("bruck-reilly", None, ("models", "bruck-reilly"),
        "9acac2b7912240ad5e6ca0391bb193546e4b2df6340ba2ade03fb2053d37835f", 10),
    Pin("baer-levi", None, ("models", "baer-levi"),
        "a0cc74799e2d03636b5460fb0fd124e67ef33e4399b2acbbfdf3d39a3a056aaf", 10),
    Pin("z", None, ("models", "z"),
        "d0238ebdb0c4909960f8e7249bc31baf4f3976e9a3ab26312547f53e28de2e03", 10),
    # the enumeration goldens, each stdout one JSON line (test_cli.py holds
    # the lines of the --oracle and --count pins and checks they hash to these
    # digests): 8 labeled tables at order 2, 2 of them groups, witness
    # strategies ideal 4, rees-L 1, rees-R 1; 113 at order 3, 3 groups, 108 / 1
    # / 1; 3492 at order 4, 16 groups, 3444 / 13 / 19; 183 732 labeled tables
    # in 1915 isomorphism classes at order 5
    Pin("enumerate-2-oracle", None, ("enumerate", "2", "--oracle"),
        "71719c2e9d001481fc7489fe7f232ef77774985c2184ac47a2e6823a01929500", 30),
    Pin("enumerate-3-oracle", None, ("enumerate", "3", "--oracle"),
        "d2e86d1889e70e179991e50a1b5437bb1a4f8ee6961bf5b7cc73356459c2ae62", 30),
    Pin("enumerate-4-oracle", None, ("enumerate", "4", "--oracle"),
        "1b380f5fa52e402cf2efbd58641279845cdac752c57e94cad3b0fbb4a9a4b6b8", 30),
    Pin("enumerate-5-count", None, ("enumerate", "5", "--count"),
        "a827c91fc2c70f1ec360acba91d4ebca51a3e4e6144e6480c11c727908383bd7", 30),
    # every labeled table of orders 3 and 4, one JSON line each
    Pin("enumerate-3", None, ("enumerate", "3"),
        "6db82081f3787c25c8cc9887348ee87b1fa66cf83b14549fe5e7ce13ba4f56e0", 30),
    Pin("enumerate-4", None, ("enumerate", "4"),
        "b4afa0f64d131c7a3ad239a11a041fa62f8ad3539c3eea241cd995897ab85cd7", 30),
    # byleen: -O shows the certificate re-checks still run, as they are
    # explicit raises; a span for each case and inverses of words with one,
    # two and four letters on each side of the base element
    Pin("byleen-equal-words", None, ("byleen", "span", _G, "b(0,s0) s0 a(0,s0)", "s1", "a(0,s0)"),
        "63082745a4698310eefb1a2cfe6b721769f4a1a45cc4f1bcb3d0ca76b253e9fd", 30),
    Pin("byleen-a-words-differ", None,
        ("byleen", "span", _G, "b(0,s0) s0 a(1,s1)", "s1", "a(0,s0)"),
        "437ab11aa0c975aae67b53a0b009f878c3daa2db0a26e4df44834ed414b4eb20", 30),
    Pin("byleen-b-words-differ", None,
        ("byleen", "span", _G, "b(1,s0) s0 a(0,s0)", "s1", "a(0,s0)"),
        "5a11026947fc85742f44657b40a33e554cd7c25763172921b889c4d7706029f5", 30),
    Pin("byleen-both-differ", None, ("byleen", "span", "a(0,s0)", "b(0,s0)", "s1", "a(2,s1)"),
        "624e6b7c7f5ee2cc3f6356d090c513374c0ab300b62b6128221c69af5e527864", 30),
    Pin("byleen-both-differ-trivial", None,
        ("byleen", "span", "b(0,s0)", "a(0,s0)", "1", "a(1,s0)", "--base", "trivial"),
        "b5eeea5a2103a06b6542d73924b5b7363f2dca98a8ccfd74960c44c0a78bf76a", 30),
    Pin("byleen-inverse-1", None, ("byleen", "inverse", _G),
        "636de446dff67ee46ed39188c169313cf7d135597cd20a7b9dbae77a45771682", 30),
    Pin("byleen-inverse-2", None, ("byleen", "inverse", "b(1,s1) b(0,s0) s1 a(2,s0) a(0,s1)"),
        "0d4652baa232252a4756ae8e6c197f65374396a467bb455c91785ec70b536b32", 30),
    Pin("byleen-inverse", None, ("byleen", "inverse", "b(1,s1) b(0,s0) b(2,s1) b(3,s0) s1 "
                                 "a(2,s0) a(0,s1) a(3,s1) a(1,s0)"),
        "56204ff4b5fd4453b19e3ee9f7a29aa2f210b4ad3fd664bb3c2953f5b081c8b7", 30),
    Pin("byleen-span-32-b", None, ("byleen", "span", f"{_B32} s1 {_A32}", _A32, "s1", "a(2,s1)"),
        "342ac7bac1006705af76e5592156582be9ff3e171792bb40e8635bf730015d35", 30),
    Pin("byleen-span-32-a", None,
        ("byleen", "span", f"{_B32} s1 {_A32}", f"{_B32} s1", "s1", "a(2,s1)"),
        "b70c5055e84fae1b58d7c8c7b11b752fd5295c17b14954a1e61abdf9e5c68882", 30),
    # library calls past what the CLI reaches (SCRIPTS)
    Pin("deep-products", None, None,
        "e17710c398d6103cbc26375d7217254161a2781728276b00a9eea952ce3449dc", 60),
    Pin("deep-products-12", None, None,
        "92da41731430aa22a715eebf75546b4f68d46ae0c83817a7155c09dbe9102f27", 30),
    Pin("subset-scan", None, None,
        "7119bde617f19be5cbc8adb218ba3ceeb3b94157227fcff4a0860d35c545a9cf", 30),
)


def _rho_products(*jobs) -> None:
    """For each job (f1, g1, f2, g2) of Baer-Levi composites, each named by its
    maps: rho-membership of (f1, g1), of (f2, g2) and of their products, with
    the meet of the products' complements."""
    w = infinite.baer_levi_witness()
    rho = w["rho_member"]
    for specs in jobs:
        f1, g1, f2, g2 = (functools.reduce(infinite.co_compose, (w[n] for n in spec))
                          for spec in specs)
        f12, g12 = infinite.co_compose(f1, f2), infinite.co_compose(g1, g2)
        meet = infinite.apset_intersect(f12.complement, g12.complement)
        print(rho(f1, g1), rho(f2, g2), rho(f12, g12), meet.modulus, meet.mask.bit_count(),
              meet.sample(64))


def deep_products() -> None:
    """5-map composites and their 10-map products."""
    _rho_products(("fghgh", "hgfgg", "ghfhf", "hhgfg"), ("hhfgf", "ggfhg", "fhggh", "gffhh"))


def deep_products_12() -> None:
    """6-map composites and their 12-map products (modulus 3^12, stride 4^12)."""
    _rho_products(("fghghf", "hgfggg", "ghfhfg", "hhgfgh"),
                  ("hhfgfg", "ggfhgh", "fhgghg", "gffhhg"))


def subset_scan() -> None:
    """The subset scan above its cap: the closed masks of C2^5 number its 374
    subgroups (OEIS A006116), and LZ8xC8's scan names its first
    non-congruence.  It raises the cap for the rest of the process."""
    relations.SUBSET_SCAN_MAX_ORDER = 64
    print(constructions.count_diagonal_subsemigroups(constructions.xor_group(5)))
    lz8_c8 = constructions.direct_product(constructions.left_zero(8), finite.cyclic_group(8))
    ok, witness = relations.brute_force_is_dsc(lz8_c8)
    print(ok, witness.sorted_pairs())


SCRIPTS = {"deep-products": deep_products, "deep-products-12": deep_products_12,
           "subset-scan": subset_scan}


def run(pins=PINS) -> int:
    """Run each pin under each of FLAG_SETS; 1 if any fails, naming it on stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        # one directory per table file, so names differing only in case never meet
        dirs: dict[str, str] = {}
        for pin in pins:
            cwd = tmp
            if pin.table is not None:
                cwd = dirs.get(pin.argv[1])
                if cwd is None:
                    cwd = dirs[pin.argv[1]] = tempfile.mkdtemp(dir=tmp)
                    write_table(pin.table, os.path.join(cwd, pin.argv[1]))
            command = ("-m", "sgdsc.cli", *pin.argv) if pin.argv is not None \
                else (os.path.abspath(__file__), pin.name)
            for flags in FLAG_SETS:
                where = f"{pin.name} under {' '.join(flags)}"
                try:
                    proc = subprocess.run([sys.executable, *flags, *command], cwd=cwd, env=env,
                                          capture_output=True, timeout=pin.timeout)
                except subprocess.TimeoutExpired:
                    print(f"{where}: timed out after {pin.timeout} s", file=sys.stderr)
                    failed += 1
                    continue
                digest = hashlib.sha256(proc.stdout).hexdigest()
                if (digest, proc.returncode) != (pin.sha256, pin.code):
                    print(f"{where}: sha256 {digest} exit {proc.returncode}, pinned "
                          f"{pin.sha256} exit {pin.code}", file=sys.stderr)
                    if proc.stderr:
                        print(proc.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
                    failed += 1
    runs = len(pins) * len(FLAG_SETS)
    print(f"{runs - failed} of {runs} pinned runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        SCRIPTS[sys.argv[1]]()
    else:
        sys.exit(run())
