"""Named identity checks, shared by the CLI runner and the test suite.

A check is declared once, by `@_register`: its suite, name, the groups it
runs on, and for every result it reports (its own first, then any
`sub_results`) the result name, the identity verified and the default
tolerance.  Identity strings name the mathematical statement and appear
verbatim in the README table.

A check body is a generator taking `(ctx, rng)`.  It yields one sample
`r` of the check's own result at a time, or `(name, r)` for a declared
sub-result, and may return a dict of report extras: `extras["notes"]`
becomes the notes and any other key an extra param of the check's own
result.  The registry reduces the samples of each result to its residual
and builds every `CheckResult`; a body that has nothing to measure yields
`0.0` before it returns.  A result's tolerance is the `tol_overrides`
entry for `suite.name` if there is one (`--tol`), else its declared
default.

`rng` is a generator derived from (seed, check name), so execution order
never changes results.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import algebroid as albr
from . import bott as bt
from . import forms as fm
from . import fusion as fu
from . import lifting as lf
from . import qham as qh
from .liealg import cubic_polynomial, make_group, quadratic_polynomial
from .sections import (AlgebroidSection, BumpFunction, TimeGrid, at_times, constant_field,
                       extend, integrate_01, loop_section, random_loop_section,
                       random_section, random_twisted_loop, scaled, template_section,
                       time_derivative)

__all__ = ["CheckResult", "CheckContext", "REGISTRY", "SUITES",
           "run_checks", "list_checks", "result_keys"]

SUITES = ("algebroid", "forms", "lifting", "bott", "fusion", "courant", "qham")


@dataclass
class CheckResult:
    suite: str
    name: str
    identity: str
    params: dict
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    check: str = ""               # the registered check that reported it
    runtime_ms: float = 0.0       # wall time of that check
    notes: str = ""
    n_samples: int = 0
    worst_sample: int | None = None

    def __post_init__(self):
        self.passed = bool(self.residual <= self.tolerance)


class CheckContext:
    """Execution context: group, grids, steps, per-check RNG and tolerance overrides."""

    def __init__(self, group_name, config):
        self.group_name = group_name
        self.algebra = make_group(group_name)
        self.grid = TimeGrid(config.get("n_points", 201))
        self.coarse_grid = TimeGrid(min(101, config.get("n_points", 201)))
        self.h = config.get("fd_step", 1e-4)
        self.h_t = config.get("t_step", 1e-5)
        self.samples = config.get("samples", 4)
        self.seed = config.get("seed", 42)
        self.tol_overrides = config.get("tol_overrides", {})
        self.bump = BumpFunction()

    def rng(self, name):
        key = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(key,)))

    def conventions(self):
        return bt.calibrate_conventions()

    def random_sections(self, rng, count):
        return [random_section(self.algebra, rng, bump=self.bump)
                for _ in range(count)]


def _reduce(samples):
    """`(residual, worst_sample, note)` of one result from its samples in yield order.

    The residual is `max(worst, r)` over the samples, starting from 0.0, and
    `worst_sample` the index of the first sample equal to it.  A NaN or
    negative sample, or no sample at all, fails the result with residual nan.
    """
    worst = 0.0
    for i, r in enumerate(samples):
        if not r >= 0.0:
            return float("nan"), i, f"sample {i} is {float(r)!r}"
        worst = max(worst, r)
    if not samples:
        return float("nan"), None, "no samples"
    return float(worst), next(i for i, r in enumerate(samples) if r == worst), ""


class CheckSpec:
    """A registered check and the results it reports.

    `results` holds `(name, identity, default tolerance)` for every result,
    the check's own first.  `body(ctx, rng)` is a generator: it yields a
    sample `r` of the check's own result or `(name, r)` of a sub-result, and
    returns its report extras (a dict) or nothing.  `fn(ctx)` runs the body
    to the end and returns the `CheckResult`s; it is a plain attribute so
    that a caller may wrap it.
    """

    def __init__(self, suite, name, body, groups, results):
        self.suite = suite
        self.name = name
        self.body = body
        self.groups = groups          # None means every catalog group
        self.results = results
        self.fn = self._run

    def applicable(self, group):
        return self.groups is None or group in self.groups

    def _run(self, ctx):
        samples = {name: [] for name, _, _ in self.results}
        extras, error = {}, ""
        body = self.body(ctx, ctx.rng(self.name))
        try:
            # invalid and divide-by-zero operations raise, so that a NaN made
            # by one fails the check with the operation named
            with np.errstate(invalid="raise", divide="raise"):
                while True:
                    item = next(body)
                    name, r = item if isinstance(item, tuple) else (self.name, item)
                    if name not in samples:
                        raise ValueError(f"check {self.suite}.{self.name} yielded a sample "
                                         f"of undeclared result {name!r}")
                    samples[name].append(r)
        except StopIteration as stop:
            extras = stop.value or {}
        except FloatingPointError as exc:
            error = f"floating-point error: {exc}"
        results = []
        for name, identity, default in self.results:
            residual, worst_sample, note = ((float("nan"), None, error) if error
                                            else _reduce(samples[name]))
            results.append(CheckResult(
                self.suite, name, identity, {"group": ctx.group_name}, residual,
                float(ctx.tol_overrides.get(f"{self.suite}.{name}", default)),
                check=self.name, notes=note, n_samples=len(samples[name]),
                worst_sample=worst_sample))
        # report extras describe the check's own result, which is declared first
        results[0].params.update((k, v) for k, v in extras.items() if k != "notes")
        results[0].notes = "; ".join(filter(None, (results[0].notes, extras.get("notes"))))
        return results


REGISTRY = []


def _register(suite, name, tol, identity, groups=None, sub_results=()):
    """Declare a check; `sub_results` lists `(name, identity, tol)` of each further result."""
    def wrap(body):
        REGISTRY.append(CheckSpec(suite, name, body, groups,
                                  ((name, identity, tol), *sub_results)))
        return body
    return wrap


# ---------------------------------------------------------------------------
# algebroid suite
# ---------------------------------------------------------------------------

@_register("algebroid", "structure_jacobi", tol=1e-12,
           identity="[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 (structure constants)")
def check_structure_jacobi(ctx, rng):
    c = ctx.algebra.c
    jac = (np.einsum("ijm,mkl->ijkl", c, c)
           + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    yield np.max(np.abs(jac))


@_register("algebroid", "bilinear_invariance", tol=1e-10,
           identity="B(Ad_g x, Ad_g y) = B(x, y)")
def check_bilinear_invariance(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)
        yield abs(alg.pairing(alg.Ad(g, x), alg.Ad(g, y))
                  - alg.pairing(x, y))


@_register("algebroid", "ad_homomorphism", tol=1e-10, identity="Ad_{gh} = Ad_g Ad_h")
def check_ad_homomorphism(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g, h = alg.random_group(rng), alg.random_group(rng)
        x = alg.random_vector(rng)
        yield np.linalg.norm(alg.Ad(g @ h, x)
                             - alg.Ad(g, alg.Ad(h, x)))


@_register("algebroid", "dirderiv_oracle", tol=1e-7,
           identity="D_v(g -> Ad_g c) = [v, Ad_g c]")
def check_dirderiv(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        c, v = alg.random_vector(rng), alg.random_vector(rng)
        got = alg.directional(lambda gg: alg.Ad(gg, c), g, v, h=ctx.h)
        want = alg.bracket(v, alg.Ad(g, c))
        scale = max(1.0, np.linalg.norm(want))
        yield np.linalg.norm(got - want) / scale


@_register("algebroid", "extend_cocycle", tol=1e-10,
           identity="xi(t+1) = Ad_g xi(t) + v_xi for all real t")
def check_extend_cocycle(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        sec = random_section(alg, rng, bump=ctx.bump)
        for t in (-1.4, -0.3, 0.25, 0.8, 1.6, 2.3):
            lhs = extend(sec, g, t + 1.0)
            rhs = alg.Ad(g, extend(sec, g, t)) + sec.v(g)
            yield np.linalg.norm(lhs - rhs)


@_register("algebroid", "template_compatibility", tol=1e-12,
           identity="template sections satisfy the seam exactly")
def check_template_compat(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        yield random_section(alg, rng, bump=ctx.bump).compatibility_residual(g)


@_register("algebroid", "simpson_order", tol=0.0,
           identity="composite Simpson converges at fourth order")
def check_simpson_order(ctx, rng):
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    exact = integrate_01(f, TimeGrid(1601))
    e1 = abs(integrate_01(f, TimeGrid(11)) - exact)
    e2 = abs(integrate_01(f, TimeGrid(21)) - exact)
    ratio = e1 / e2
    yield max(0.0, 12.0 - ratio)
    return {"notes": f"halving ratio {ratio:.1f}"}


@_register("algebroid", "bracket_jacobi", tol=1e-5,
           identity="[[xi,zeta],chi] + cyclic = 0")
def check_bracket_jacobi(ctx, rng):
    alg = ctx.algebra
    n_triples = max(ctx.samples, 8)
    for _ in range(n_triples):
        g = alg.random_group(rng)
        a, b, c = ctx.random_sections(rng, 3)
        t0 = rng.uniform(0.15, 0.85)
        total = albr.bracket(albr.bracket(a, b, h=ctx.h), c, h=ctx.h).profile(g, t0)
        total = total + albr.bracket(albr.bracket(b, c, h=ctx.h), a, h=ctx.h).profile(g, t0)
        total = total + albr.bracket(albr.bracket(c, a, h=ctx.h), b, h=ctx.h).profile(g, t0)
        yield np.linalg.norm(total)
    return {"triples": n_triples}


def _times(h, t, value):
    """A function h of the points (point axes only) times value at the times t."""
    return at_times(np.asarray(h)[..., None], t) * value


@_register("algebroid", "bracket_leibniz", tol=1e-6,
           identity="[xi, h zeta] = h [xi,zeta] + (a(xi) h) zeta")
def check_bracket_leibniz(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(ctx.samples, 8)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        c0 = alg.random_vector(rng)

        def hfun(gg):
            return np.sin(alg.pairing(c0, alg.Ad(gg, c0)))

        hz = AlgebroidSection(
            alg, lambda gg, t: _times(hfun(gg), t, ze.profile(gg, t)),
            lambda gg: _times(hfun(gg), (), ze.v(gg)),
            dprofile=lambda gg, t: _times(hfun(gg), t, ze.dprofile(gg, t)))
        t0 = rng.uniform(0.15, 0.85)
        lhs = albr.bracket(xi, hz, h=ctx.h).profile(g, t0)
        dh = alg.directional(lambda gg: np.array(hfun(gg)), g, xi.v(g), h=ctx.h)
        rhs = hfun(g) * albr.bracket(xi, ze, h=ctx.h).profile(g, t0) \
            + float(dh) * ze.profile(g, t0)
        yield np.linalg.norm(lhs - rhs)


@_register("algebroid", "anchor_morphism", tol=1e-6,
           identity="a([xi,zeta]) = [a(xi), a(zeta)] as vector fields")
def check_anchor_morphism(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        got = albr.bracket(xi, ze, h=ctx.h).v(g)
        want = -alg.bracket(xi.v(g), ze.v(g))
        want = want + alg.directional(ze.v, g, xi.v(g), h=ctx.h)
        want = want - alg.directional(xi.v, g, ze.v(g), h=ctx.h)
        yield np.linalg.norm(got - want)


@_register("algebroid", "generator_action", tol=1e-6,
           identity="[x_A, xi] = d/du (exp(ux).xi) at u = 0")
def check_generator_action(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        t0 = rng.uniform(0.1, 0.9)
        got = albr.bracket(albr.generator(alg, x), xi, h=ctx.h).profile(g, t0)

        def action(u):
            k = alg.exp(u * x)
            kinv = alg.inv(k)
            return alg.Ad(k, xi.profile(kinv @ g @ k, t0))

        h = ctx.h
        want = (8 * (action(h) - action(-h)) - (action(2 * h) - action(-2 * h))) / (12 * h)
        yield np.linalg.norm(got - want)


def _invariant_family(ctx, rng):
    coeffs = rng.uniform(-0.5, 0.5, size=3)
    alpha0 = albr.invariant_alpha0(ctx.algebra, coeffs)
    return albr.build_alpha(ctx.algebra, alpha0=alpha0, bump=ctx.bump, invariant=True)


@_register("algebroid", "alpha_gauge_periodicity", tol=1e-10,
           identity="alpha_{t+1} = Ad_g alpha_t - theta^R")
def check_alpha_gauge(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v = alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        for t in (-0.4, 0.3, 1.2):
            yield alpha.gauge_residual(t, g, v)
        k = alg.random_group(rng)
        yield alpha.equivariance_residual(0.37, g, v, k)


@_register("algebroid", "curvature_gauge_covariance", tol=1e-6,
           identity="F^{alpha_{t+1}} = Ad_g F^{alpha_t}")
def check_curvature_covariance(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        t = 0.04  # flat region of the bump, matched across the seam
        f0 = albr.curvature(alpha, g, t, v, w, h=ctx.h)
        f1 = albr.curvature(alpha, g, t + 1.0, v, w, h=ctx.h)
        yield np.linalg.norm(f1 - alg.Ad(g, f0))


@_register("algebroid", "connection_vertical", tol=1e-8,
           identity="theta(xi) = xi + alpha(a(xi)) lies in the loop bundle")
def check_connection_vertical(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        alpha = _invariant_family(ctx, rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        vert = albr.connection_apply(alpha, xi)
        yield vert.compatibility_residual(g)
        yield np.linalg.norm(vert.v(g))


@_register("algebroid", "psi_seam", tol=1e-8,
           identity="Psi(x) = -x + alpha(a(x_A)) is a loop-bundle section")
def check_psi_seam(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        alpha = _invariant_family(ctx, rng)
        x = alg.random_vector(rng)
        for t in (0.0, 0.33, 0.8):
            lhs = albr.generator_vertical_part(alpha, x, g, t + 1.0)
            rhs = alg.Ad(g, albr.generator_vertical_part(alpha, x, g, t))
            yield np.linalg.norm(lhs - rhs)
        yield np.linalg.norm(
            albr.generator_vertical_part(alpha, x, alg.identity(), 0.5) + x)


@_register("algebroid", "kappa_seam", tol=1e-10,
           identity="kappa_{t+1} = Ad_g kappa_t - a* theta^R")
def check_kappa_seam(ctx, rng):
    alg = ctx.algebra
    kf = albr.KappaFamily(alg)
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        for t in (-0.3, 0.3, 1.4):
            lhs = kf.value(t + 1.0, g, xi)
            rhs = alg.Ad(g, kf.value(t, g, xi)) - xi.v(g)
            yield np.linalg.norm(lhs - rhs)
        x = alg.random_vector(rng)
        yield np.linalg.norm(
            kf.value(0.4, g, albr.generator(alg, x)) - x)


@_register("algebroid", "kappa_flat", tol=1e-6,
           identity="F^kappa = 0 and F_G^kappa(x) + x = 0")
def check_kappa_flat(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        t0 = rng.uniform(0.1, 0.9)
        kap = albr.KappaFamily(alg).at(t0)
        dk = fm.exterior_derivative(kap, h=ctx.h)
        fval = dk(g, xi, ze) + alg.bracket(kap(g, xi), kap(g, ze))
        yield np.linalg.norm(fval)
        x = alg.random_vector(rng)
        xa = albr.generator(alg, x)
        fg = -kap(g, xa)  # F_G - part: F = 0, so F_G(x) = -iota_{x_A} kappa
        yield np.linalg.norm(fg + x)


# ---------------------------------------------------------------------------
# forms suite
# ---------------------------------------------------------------------------

def _random_one_form(ctx, rng):
    alg = ctx.algebra
    c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
    return fm.AlgebroidForm(alg, 1, lambda g, v: alg.pairing(c1 + alg.Ad(g, c2), v))


@_register("forms", "d_squared", tol=1e-4, identity="d(d phi) = 0")
def check_d_squared(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        c = alg.random_vector(rng)
        t0 = rng.uniform(0.1, 0.9)
        # 0-form
        zero_form = fm.AlgebroidForm(alg, 0, lambda gg: alg.pairing(c, alg.Ad(gg, c)))
        dd0 = fm.exterior_derivative(fm.exterior_derivative(zero_form, h=ctx.h), h=ctx.h)
        yield abs(dd0(g, secs[0], secs[1]))
        # 1-form built on the tautological family
        kap = albr.KappaFamily(alg).at(t0)
        one = fm.AlgebroidForm(alg, 1, lambda gg, s: alg.pairing(c, kap(gg, s)))
        dd1 = fm.exterior_derivative(fm.exterior_derivative(one, h=ctx.h), h=ctx.h)
        yield abs(dd1(g, *secs))


@_register("forms", "cartan_commutation", tol=1e-5,
           identity="i_zeta L_xi = L_xi i_zeta - i_{[xi,zeta]}")
def check_cartan_commutation(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        c = alg.random_vector(rng)
        kap = albr.KappaFamily(alg).at(0.3)
        phi = fm.AlgebroidForm(alg, 1, lambda gg, s: alg.pairing(c, kap(gg, s)))
        lhs = fm.contract(fm.lie_derivative(phi, xi, h=ctx.h), ze)(g)
        rhs = fm.lie_derivative(fm.contract(phi, ze), xi, h=ctx.h)(g) \
            - phi(g, albr.bracket(xi, ze, h=ctx.h))
        yield abs(lhs - rhs)


@_register("forms", "horizontal_basic", tol=1e-5,
           identity="i_zeta phi = 0 and L_zeta phi = 0 for basic phi, zeta in L")
def check_horizontal_basic(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        om = _random_one_form(ctx, rng)
        aom = fm.pullback_anchor(om)
        loop = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        yield abs(aom(g, loop))
        yield abs(fm.lie_derivative(aom, loop, h=ctx.h)(g, chi))


@_register("forms", "anchor_cochain", tol=1e-5, identity="d(a* omega) = a*(d omega)")
def check_anchor_cochain(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        om = _random_one_form(ctx, rng)
        secs = ctx.random_sections(rng, 2)
        lhs = fm.exterior_derivative(fm.pullback_anchor(om), h=ctx.h)(g, *secs)
        rhs = fm.pullback_anchor(fm.de_rham_differential(om, h=ctx.h))(g, *secs)
        yield abs(lhs - rhs)


@_register("forms", "eta_value", tol=1e-12,
           identity="eta(e1,e2,e3) = (1/2) B(e1,[e2,e3]) at every g")
def check_eta_value(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    if alg.dim < 3:
        yield 0.0
        return {"notes": "dim < 3: eta vanishes identically"}
    e = np.eye(alg.dim)
    want = 0.5 * alg.pairing(e[0], alg.bracket(e[1], e[2]))
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        yield abs(eta(g, e[0], e[1], e[2]) - want)
    return {"notes": f"reference value {want:g}"}


@_register("forms", "eta_equivariant_closed", tol=1e-5,
           identity="d_G eta_G = 0 (2-form and 0-form components)")
def check_eta_g_closed(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    flipped_also = True
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        parts = fm.equivariant_cartan(alg, x)
        xg = alg.Ad(g, x) - x
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        d1 = fm.de_rham_differential(parts[1], h=ctx.h)
        yield abs(-eta(g, xg, v, w) + d1(g, v, w))
        yield abs(parts[1](g, xg))
        flip = eta(g, xg, v, w) + d1(g, v, w)
        if abs(flip) > 1e-5:
            flipped_also = False
    notes = "flipped insertion sign also closed (degenerate data)" if flipped_also else ""
    return {"notes": notes}


@_register("forms", "dkappa_identity", tol=1e-6,
           identity="d kappa_t(xi, zeta) = -[xi_t, zeta_t]")
def check_dkappa(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        t0 = rng.uniform(0.1, 0.9)
        got = fm.exterior_derivative(albr.KappaFamily(alg).at(t0), h=ctx.h)(g, xi, ze)
        want = -alg.bracket(extend(xi, g, t0), extend(ze, g, t0))
        yield np.linalg.norm(got - want)


# ---------------------------------------------------------------------------
# lifting suite
# ---------------------------------------------------------------------------

@_register("lifting", "sigma_value", tol=1e-7,
           identity="sigma(sin(2 pi t) e1, cos(2 pi t) e1) = -pi")
def check_sigma_value(ctx, rng):
    alg = ctx.algebra
    e1 = np.zeros(alg.dim); e1[0] = 1.0
    two_pi = 2.0 * np.pi
    s1 = loop_section(alg, lambda t: scaled(np.sin(two_pi * t), e1),
                      lambda t: scaled(two_pi * np.cos(two_pi * t), e1))
    s2 = loop_section(alg, lambda t: scaled(np.cos(two_pi * t), e1),
                      lambda t: scaled(-two_pi * np.sin(two_pi * t), e1))
    val = lf.central_cocycle(s1, s2, alg.identity(), ctx.grid, h_t=ctx.h_t)
    scale = alg.pairing(e1, e1)
    yield abs(val + np.pi * scale)


@_register("lifting", "sigma_antisymmetry", tol=1e-8,
           identity="sigma(x1,x2) + sigma(x2,x1) = -[x1 . x2] boundary = 0")
def check_sigma_antisym(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        s = lf.central_cocycle(z1, z2, g, ctx.grid, h_t=ctx.h_t) \
            + lf.central_cocycle(z2, z1, g, ctx.grid, h_t=ctx.h_t)
        yield abs(s)


@_register("lifting", "dsigma_dj", tol=1e-5,
           identity="(d sigma)(x1,x2) = <dj, [x1,x2]_L>")
def check_dsigma(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        ch = random_section(alg, rng, bump=ctx.bump)
        # i_chi (d sigma)(x1,x2): derivative term minus structure terms
        drift = alg.stencil_derivative(
            lambda gg: lf.central_cocycle(z1, z2, gg, ctx.coarse_grid, h_t=ctx.h_t),
            g, ch.v(g), h=ctx.h)
        b1 = albr.bracket(ch, z1, h=ctx.h)
        b2 = albr.bracket(ch, z2, h=ctx.h)
        lhs = drift \
            - lf.central_cocycle(b1, z2, g, ctx.coarse_grid, h_t=ctx.h_t) \
            - lf.central_cocycle(z1, b2, g, ctx.coarse_grid, h_t=ctx.h_t)
        pointwise = AlgebroidSection(
            alg, lambda gg, t: -alg.bracket(z1.profile(gg, t), z2.profile(gg, t)),
            constant_field(alg, np.zeros(alg.dim)))
        ts = ctx.coarse_grid.nodes
        rhs = ctx.coarse_grid.integrate(alg.pairing(
            time_derivative(ch, g, ts, h_t=ctx.h_t), pointwise.profile(g, ts)))
        yield abs(lhs - rhs)


@_register("lifting", "dthetaj_routes", tol=1e-5,
           identity="<d^theta j, zeta> = -int alpha'.zeta = <dj,zeta> + sigma(theta,zeta)")
def check_dthetaj(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        alpha = _invariant_family(ctx, rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        ze = random_twisted_loop(alg, rng, bump=ctx.bump)
        r1 = lf.dtheta_j(alpha, g, xi.v(g), ze, ctx.grid)
        r2 = lf.dtheta_j_definitional(alpha, xi, ze, g, ctx.grid, h_t=ctx.h_t)
        yield abs(r1 - r2)


@_register("lifting", "lhat_bracket", tol=1e-6,
           identity="[j x1, j x2] = (j[x1,x2]_L, -sigma(x1,x2)) and Jacobi")
def check_lhat(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng, scale=0.5)
    loops = [random_twisted_loop(alg, rng, bump=ctx.bump) for _ in range(3)]
    t0 = rng.uniform(0.2, 0.8)
    exts = [lf.ExtendedLSection.split(z) for z in loops]
    br = lf.bracket_lhat(exts[0], exts[1], ctx.coarse_grid, h_t=ctx.h_t)
    yield abs(br.scalar(g)
              + lf.central_cocycle(loops[0], loops[1], g, ctx.coarse_grid, h_t=ctx.h_t))
    # Jacobi of the extended bracket: scalar and body parts of the cyclic sum
    outers = [lf.bracket_lhat(lf.bracket_lhat(exts[i], exts[j], ctx.coarse_grid, h_t=ctx.h_t),
                              exts[k], ctx.coarse_grid, h_t=ctx.h_t)
              for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    yield abs(sum(outer.scalar(g) for outer in outers))
    yield np.linalg.norm(sum(outer.body.profile(g, t0) for outer in outers))


@_register("lifting", "nablahat_flat", tol=1e-4,
           identity="nabla_hat is flat: [nabla_1, nabla_2] = nabla_{[1,2]}")
def check_nablahat_flat(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng, scale=0.5)
    xi, ze = ctx.random_sections(rng, 2)
    body = random_twisted_loop(alg, rng, bump=ctx.bump)
    b = lf.ExtendedLSection(body, lambda gg: np.sin(gg[..., 0, -1]))
    n12 = lf.nabla_hat(xi, lf.nabla_hat(ze, b, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    n21 = lf.nabla_hat(ze, lf.nabla_hat(xi, b, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    nbr = lf.nabla_hat(albr.bracket(xi, ze, h=ctx.h), b, ctx.coarse_grid,
                       h=ctx.h, h_t=ctx.h_t)
    yield abs(n12.scalar(g) - n21.scalar(g) - nbr.scalar(g))
    t0 = 0.37
    yield np.linalg.norm(
        n12.body.profile(g, t0) - n21.body.profile(g, t0) - nbr.body.profile(g, t0))


@_register("lifting", "nablahat_derivation", tol=1e-5,
           identity="nabla_hat differentiates the extended bracket")
def check_nablahat_derivation(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng, scale=0.5)
    xi = random_section(alg, rng, bump=ctx.bump)
    b1 = lf.ExtendedLSection.split(random_twisted_loop(alg, rng, bump=ctx.bump))
    b2 = lf.ExtendedLSection.split(random_twisted_loop(alg, rng, bump=ctx.bump))
    lhs = lf.nabla_hat(xi, lf.bracket_lhat(b1, b2, ctx.coarse_grid, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    r1 = lf.bracket_lhat(lf.nabla_hat(xi, b1, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                         b2, ctx.coarse_grid, h_t=ctx.h_t)
    r2 = lf.bracket_lhat(b1, lf.nabla_hat(xi, b2, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                         ctx.coarse_grid, h_t=ctx.h_t)
    yield abs(lhs.scalar(g) - r1.scalar(g) - r2.scalar(g))
    t0 = 0.41
    yield np.linalg.norm(
        lhs.body.profile(g, t0) - r1.body.profile(g, t0) - r2.body.profile(g, t0))


@_register("lifting", "varpi_antisymmetry", tol=1e-6,
           identity="varpi(xi, zeta) + varpi(zeta, xi) = 0")
def check_varpi_antisym(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        yield abs(
            lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
            + lf.canonical_two_form(ze, xi, g, ctx.grid, h_t=ctx.h_t))


@_register("lifting", "varpi_generators", tol=1e-8, groups=("so3", "su2"),
           identity="varpi(x_A, y_A) = (1/2) x.(Ad_g - Ad_{g^{-1}}) y")
def check_varpi_generators(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(ctx.samples, 20)):
        g = alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)
        got = lf.canonical_two_form(albr.generator(alg, x), albr.generator(alg, y),
                                    g, ctx.grid, h_t=ctx.h_t)
        want = 0.5 * alg.pairing(x, alg.Ad(g, y) - alg.Ad(alg.inv(g), y))
        yield abs(got - want)
    # the pinned spot value at the quarter turn
    e = np.eye(alg.dim)
    g0 = alg.exp(0.5 * np.pi * e[2])
    spot = lf.canonical_two_form(albr.generator(alg, e[0]), albr.generator(alg, e[1]),
                                 g0, ctx.grid, h_t=ctx.h_t)
    yield abs(spot + 1.0)
    return {"notes": f"spot value {spot:.12f} at the quarter turn"}


@_register("lifting", "varpi_splitting_routes", tol=1e-5,
           identity="varpi^alpha = <dj,theta> + (1/2) sigma(theta,theta) = a* Q^alpha + varpi")
def check_varpi_routes(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        alpha = _invariant_family(ctx, rng)
        bry = lf.brylinski_two_form(alpha, xi, ze, g, ctx.grid, h_t=ctx.h_t)
        base = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        q = lf.q_alpha(alpha, g, xi.v(g), ze.v(g), ctx.grid)
        yield abs(bry - (q + base))


@_register("lifting", "varpi_kappa_q", tol=1e-8, identity="varpi = -Q^kappa")
def check_varpi_kappa_q(ctx, rng):
    alg = ctx.algebra
    fam = albr.KappaFamily(alg, h_t=ctx.h_t)
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        q = bt.q_functional(fam, g, xi, ze, ctx.grid, h=ctx.h)
        base = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        yield abs(base + q)


@_register("lifting", "q_closed_form", tol=1e-8,
           identity="Q^alpha = ((thL+thR)/2).alpha_0 + (1/2) alpha_0 . Ad_g alpha_0; 0 when alpha_0 = 0")
def check_q_closed_form(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        q1 = lf.q_alpha(alpha, g, v, w, ctx.grid)
        q2 = lf.q_alpha_closed_form(alpha, g, v, w)
        yield abs(q1 - q2)
        zero = albr.build_alpha(alg, bump=ctx.bump)
        yield abs(lf.q_alpha(zero, g, v, w, ctx.grid))


@_register("lifting", "iota_loop_varpi", tol=1e-5,
           identity="i_xi varpi = -<dj, xi> for xi in the loop bundle")
def check_iota_loop_varpi(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        ze = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        lhs = lf.canonical_two_form(ze, chi, g, ctx.grid, h_t=ctx.h_t)
        ts = ctx.grid.nodes
        rhs = -ctx.grid.integrate(alg.pairing(
            time_derivative(chi, g, ts, h_t=ctx.h_t), extend(ze, g, ts)))
        yield abs(lhs - rhs)


@_register("lifting", "iota_generator_varpi", tol=1e-5,
           identity="i_{x_A} varpi = (1/2) a*((theta^L + theta^R).x)")
def check_iota_generator_varpi(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        chi = random_section(alg, rng, bump=ctx.bump)
        lhs = lf.canonical_two_form(albr.generator(alg, x), chi, g, ctx.grid,
                                    h_t=ctx.h_t)
        rhs = 0.5 * alg.pairing(alg.maurer_cartan(g, chi.v(g), "left") + chi.v(g), x)
        yield abs(lhs - rhs)


@_register("lifting", "dvarpi_eta", tol=1e-4, identity="d varpi = a* eta")
def check_dvarpi_eta(ctx, rng):
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    eta = fm.pullback_anchor(fm.cartan_three_form(alg))
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        lhs = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
        rhs = eta(g, *secs)
        yield abs(lhs - rhs)


@_register("lifting", "equivariant_three_form", tol=1e-4, groups=("su2",),
           identity="d_G varpi(x) = a* eta_G(x)")
def check_equivariant_three_form(ctx, rng):
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    eta = fm.cartan_three_form(alg)
    n_x = 5
    for trial in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        d3 = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
        r3 = eta(g, *[s.v(g) for s in secs])
        yield abs(d3 - r3)
        for _ in range(n_x):
            x = alg.random_vector(rng)
            xa = albr.generator(alg, x)
            lhs1 = -vform(g, xa, secs[0])
            rhs1 = fm.equivariant_cartan(alg, x)[1](g, secs[0].v(g))
            yield abs(lhs1 - rhs1)
    return {"x_samples": n_x}


@_register("lifting", "eta_data_route", tol=1e-5,
           identity="-<d^theta j, F^theta> = a* eta for alpha_0 = 0")
def check_eta_data_route(ctx, rng):
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    etad = lf.eta_from_data(alpha, ctx.coarse_grid, h=ctx.h)
    eta = fm.cartan_three_form(alg)
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        vs = [alg.random_vector(rng) for _ in range(3)]
        yield abs(etad(g, *vs) - eta(g, *vs))


@_register("lifting", "lifted_jacobi_primitive", tol=1e-4, groups=("heisenberg3", "torus2"),
           identity="d omega = -eta makes the lifted bracket a Lie bracket")
def check_lifted_jacobi_primitive(ctx, rng):
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    omega = None
    if ctx.group_name == "heisenberg3":
        # radial-homotopy primitive of -eta in exponential coordinates
        from .homotopy import poincare_primitive
        prim = poincare_primitive(fm.cartan_three_form(alg), sign=-1.0, h=ctx.h)
        omega = lambda g, v, w, prim=prim: prim(g, v, w)
    for _ in range(2):
        g = alg.random_group(rng, scale=0.5)
        vs = [alg.random_vector(rng) for _ in range(3)]
        fields = [constant_field(alg, v) for v in vs]
        om_form = None
        if omega is not None:
            om_form = fm.AlgebroidForm(alg, 2, omega)
        jac = lf.lifted_jacobiator_scalar(om_form, alpha, fields, g,
                                          ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
        yield abs(jac)
    if ctx.group_name == "heisenberg3":
        return {"notes": "eta vanishes identically on heisenberg3 (B is zero on the "
                         "centre, which holds every bracket), so the check compares "
                         "against omega = 0"}


def _coordinate_omega(alg):
    """The 2-form g_02 (a_0 b_1 - a_1 b_0) in matrix and basis coordinates, over
    point axes; on heisenberg3 its d omega is not zero."""
    return fm.AlgebroidForm(alg, 2, lambda g, a, b: g[..., 0, 2] * (
        a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]), name="coordinate omega")


@_register("lifting", "lifted_jacobi_obstruction", tol=1e-4,
           groups=("su2", "heisenberg3", "torus2"),
           identity="scalar Jacobiator of the lifted bracket = (d omega + eta)(X1,X2,X3)")
def check_lifted_jacobi_obstruction(ctx, rng):
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    eta = fm.cartan_three_form(alg)
    notes = []
    cases = [("omega=0", None)]
    if ctx.group_name == "heisenberg3":
        cases.append(("coordinate omega", _coordinate_omega(alg)))
    for label, om in cases:
        g = alg.random_group(rng, scale=0.5)
        vs = [alg.random_vector(rng) for _ in range(3)]
        fields = [constant_field(alg, v) for v in vs]
        jac = lf.lifted_jacobiator_scalar(om, alpha, fields, g, ctx.coarse_grid,
                                          h=ctx.h, h_t=ctx.h_t)
        target = eta(g, *vs)
        if om is not None:
            target += fm.de_rham_differential(om, h=ctx.h)(g, *vs)
        yield abs(jac - target)
        notes.append(f"{label}: jacobiator {jac:.6g} vs {target:.6g}")
    return {"notes": "; ".join(notes)}


@_register("lifting", "equivariant_generators", tol=1e-4, groups=("heisenberg3", "torus2"),
           identity="omega(x_N, X) + d Phi(x)(X) = <d^theta j(X), Psi(x)>")
def check_equivariant_generators(ctx, rng):
    alg = ctx.algebra
    from .homotopy import poincare_primitive
    alpha = albr.build_alpha(alg, bump=ctx.bump)

    def phi_map(x):
        mu = fm.AlgebroidForm(alg, 1, lambda g, a:
                              -0.5 * alg.pairing(alg.maurer_cartan(g, a, "left") + a, x))
        prim = poincare_primitive(mu, sign=1.0, h=ctx.h)
        return lambda g: prim(g)

    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.6)
        x = alg.random_vector(rng)
        v = alg.random_vector(rng)
        yield lf.equivariant_generator_residual(
            None, phi_map, alpha, x, v, g, ctx.coarse_grid, h=ctx.h)


@_register("lifting", "gamma_change", tol=1e-4, groups=("su2",),
           identity="eta' - eta = d gamma under (j, theta) -> (j + beta, theta + lambda)")
def check_gamma_change(ctx, rng):
    alg = ctx.algebra
    grid = TimeGrid(51)
    alpha = albr.build_alpha(alg, alpha0=albr.invariant_alpha0(alg, (0.2, -0.1, 0.05)),
                             bump=ctx.bump, invariant=True)
    c1, c2 = alg.random_vector(rng, 0.3), alg.random_vector(rng, 0.3)
    lam0 = lambda g, v: scaled(alg.pairing(c1, v), c2) + 0.2 * alg.Ad(g, v)
    lam = lf.HorizontalFamily(alg, lam0, ctx.bump)
    bker = random_twisted_loop(alg, rng, scale=0.4, bump=ctx.bump)
    gam = lf.gamma_change(alpha, lam, bker, grid, h=ctx.h, h_t=ctx.h_t)
    etap = lf.eta_perturbed(alpha, lam, bker, grid, h=ctx.h)
    eta0 = lf.eta_from_data(alpha, grid, h=ctx.h)
    g = alg.random_group(rng)
    vs = [alg.random_vector(rng) for _ in range(3)]
    lhs = etap(g, *vs) - eta0(g, *vs)
    rhs = fm.de_rham_differential(gam, h=ctx.h)(g, *vs)
    yield abs(lhs - rhs)
    # specialization: lambda = 0, beta only: a* gamma = -<beta, F>
    gam0 = lf.gamma_change(alpha, lf.HorizontalFamily(alg, lambda g, v: np.zeros(alg.dim), ctx.bump),
                           bker, grid, h=ctx.h, h_t=ctx.h_t)
    fsec = lf._curvature_section(alpha, lambda gg: vs[0], lambda gg: vs[1], h=ctx.h)
    want = -grid.integrate(alg.pairing(extend(bker, g, grid.nodes),
                                       fsec.profile(g, grid.nodes)))
    yield abs(gam0(g, vs[0], vs[1]) - want)


# ---------------------------------------------------------------------------
# bott suite
# ---------------------------------------------------------------------------

def _random_gvalued(ctx, rng):
    alg = ctx.algebra
    thl = bt.oneform_theta_left(alg)
    c = alg.random_vector(rng, 0.5)
    d = alg.random_vector(rng, 0.5)
    return fm.AlgebroidForm(
        alg, 1, lambda g, s: 0.4 * thl(g, s) + scaled(alg.pairing(c, s.v(g)), alg.Ad(g, d)),
        scalar=False)


@_register("bott", "convention_table", tol=1.0, groups=("su2",),
           identity="orientation signs calibrated once on su2")
def check_convention_table(ctx, rng):
    yield 0.0
    return {"notes": str(ctx.conventions().as_dict())}


@_register("bott", "stokes_family", tol=1e-3,
           identity="d Upsilon(b_0..b_k) = alternating sum of Upsilon with one form omitted")
def check_stokes_family(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    thl = bt.oneform_theta_left(alg)
    b1 = _random_gvalued(ctx, rng)
    b2 = albr.KappaFamily(alg).at(0.3)
    u1 = fm.AlgebroidForm(alg, 2, lambda gg, *ss:
                          bt.upsilon(p, [thl, b1], gg, ss, conventions=conv, h=ctx.h))
    lhs = fm.exterior_derivative(u1, h=ctx.h)(g, *secs)
    rhs = bt.upsilon(p, [b1], g, secs, conventions=conv, h=ctx.h) \
        - bt.upsilon(p, [thl], g, secs, conventions=conv, h=ctx.h)
    yield abs(lhs - rhs)
    u2 = fm.AlgebroidForm(alg, 1, lambda gg, *ss:
                          bt.upsilon(p, [thl, b1, b2], gg, ss, conventions=conv, h=ctx.h))
    lhs2 = fm.exterior_derivative(u2, h=ctx.h)(g, *secs[:2])
    rhs2 = bt.upsilon(p, [b1, b2], g, secs[:2], conventions=conv, h=ctx.h) \
        - bt.upsilon(p, [thl, b2], g, secs[:2], conventions=conv, h=ctx.h) \
        + bt.upsilon(p, [thl, b1], g, secs[:2], conventions=conv, h=ctx.h)
    yield abs(lhs2 - rhs2)


@_register("bott", "upsilon_gauge_invariance", tol=1e-4,
           identity="Upsilon(Phi.b_0, Phi.b_1) = Upsilon(b_0, b_1), equivariant version too")
def check_upsilon_gauge(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    b0 = _random_gvalued(ctx, rng)
    b1 = albr.KappaFamily(alg).at(0.25)
    phi = lambda gg: gg @ gg
    gb0, gb1 = bt.gauge_transform(phi, b0, h=ctx.h), bt.gauge_transform(phi, b1, h=ctx.h)
    yield abs(bt.upsilon(p, [b0, b1], g, secs, conventions=conv, h=ctx.h)
              - bt.upsilon(p, [gb0, gb1], g, secs, conventions=conv, h=ctx.h))
    x = alg.random_vector(rng)
    for args in (secs, secs[:1]):
        yield abs(
            bt.upsilon_equivariant(p, [b0, b1], x, g, args, conventions=conv, h=ctx.h)
            - bt.upsilon_equivariant(p, [gb0, gb1], x, g, args, conventions=conv, h=ctx.h))


@_register("bott", "gauge_composition", tol=1e-6,
           identity="(Phi' Phi).beta = Phi'.(Phi.beta)")
def check_gauge_composition(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng)
    sec = random_section(alg, rng, bump=ctx.bump)
    beta = _random_gvalued(ctx, rng)
    e0 = alg.random_vector(rng, 0.4)
    phi1 = lambda gg: alg.exp(e0) @ gg
    phi2 = lambda gg: gg @ gg
    lhs = bt.gauge_transform(lambda gg: phi2(gg) @ phi1(gg), beta, h=ctx.h)(g, sec)
    rhs = bt.gauge_transform(phi2, bt.gauge_transform(phi1, beta, h=ctx.h), h=ctx.h)(g, sec)
    yield float(np.linalg.norm(lhs - rhs))
    zero = bt.oneform_zero(alg)
    idm = lambda gg: gg
    val = bt.gauge_transform(idm, zero, h=ctx.h)(g, sec)
    yield float(np.linalg.norm(val + sec.v(g)))
    return {"notes": "identity-map gauge of 0 gives -theta^R"}


@_register("bott", "cs_vs_bott", tol=1e-4,
           identity="CS(beta) = c Upsilon^p(0, beta) with one fixed sign c")
def check_cs_vs_bott(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    zero = bt.oneform_zero(alg)
    ratios = []
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        beta = _random_gvalued(ctx, rng)
        ub = bt.upsilon(p, [zero, beta], g, secs, conventions=conv, h=ctx.h)
        cs = bt.chern_simons(beta, g, secs, h=ctx.h)
        if abs(cs) > 1e-8:
            ratios.append(ub / cs)
    if not ratios:
        yield 0.0
        return {"notes": "degenerate samples"}
    c = float(np.sign(ratios[0]))
    for r in ratios:
        yield abs(r - c)
    return {"notes": f"fixed sign {c:g}"}


@_register("bott", "eta_p_anchor", tol=1e-4, groups=("su2", "so3"),
           identity="Upsilon^p(0, theta^L) = c eta with the recorded sign")
def check_eta_p_anchor(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    zero = bt.oneform_zero(alg)
    thl = bt.oneform_theta_left(alg)
    eta = fm.pullback_anchor(fm.cartan_three_form(alg))
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        got = bt.upsilon(p, [zero, thl], g, secs, conventions=conv, h=ctx.h)
        want = conv.eta_p_vs_eta * eta(g, *secs)
        yield abs(got - want)
    return {"notes": f"c = {conv.eta_p_vs_eta:g}"}


@_register("bott", "cs_exact", tol=1e-4, identity="d CS(beta) = (1/2) F^beta . F^beta")
def check_cs_exact(ctx, rng):
    alg = ctx.algebra
    p = quadratic_polynomial(alg)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 4)
    beta = _random_gvalued(ctx, rng)
    csf = fm.AlgebroidForm(alg, 3, lambda gg, *ss: bt.chern_simons(beta, gg, ss, h=ctx.h))
    lhs = fm.exterior_derivative(csf, h=ctx.h)(g, *secs)
    rhs = bt.upsilon(p, [beta], g, secs, rule=bt.SimplexRule(0), h=ctx.h)
    yield abs(lhs - rhs)


@_register("bott", "cs_gauge_law", tol=1e-4,
           identity="CS(Phi.beta) = CS(beta) + Phi* eta - (1/2) d(beta . Phi* theta^L)")
def check_cs_gauge_law(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    for _ in range(max(1, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        beta = _random_gvalued(ctx, rng)
        phi = lambda gg: gg @ gg

        def phi_eta(gg, *ss):
            vs = [bt.map_theta_right(alg, phi, gg, s.v(gg), h=ctx.h) for s in ss]
            return eta(phi(gg), *vs)

        pair = fm.AlgebroidForm(alg, 2, lambda gg, s1, s2:
                                alg.pairing(beta(gg, s1), bt.map_theta_left(alg, phi, gg, s2.v(gg), h=ctx.h))
                                - alg.pairing(beta(gg, s2), bt.map_theta_left(alg, phi, gg, s1.v(gg), h=ctx.h)))
        lhs = bt.chern_simons(bt.gauge_transform(phi, beta, h=ctx.h), g, secs, h=ctx.h)
        rhs = bt.chern_simons(beta, g, secs, h=ctx.h) + phi_eta(g, *secs) \
            - 0.5 * fm.exterior_derivative(pair, h=ctx.h)(g, *secs)
        yield abs(lhs - rhs)


def _gauge_family(ctx, rng, phi=None):
    alg = ctx.algebra
    beta0 = _random_gvalued(ctx, rng)
    if phi is None:
        e1 = alg.random_vector(rng, 0.4)
        phi = lambda gg, m=alg.exp(e1): gg @ m
    return bt.GaugePeriodicFamily(alg, beta0, phi, bump=ctx.bump, h=ctx.h)


def _velocity_dot_curvature(ctx, fam, g, secs, t):
    """beta_t' . F^{beta_t} on three sections, at a time or an array of times."""
    alg = ctx.algebra
    data = bt._PairData(alg, [fam.at(t)], secs, g, h=ctx.h)
    dv = [fam.tderiv(t, g, s) for s in secs]
    out = 0.0
    for (i, j, k), sign in (((0, 1, 2), 1.0), ((1, 0, 2), -1.0), ((2, 0, 1), 1.0)):
        f = data.dbeta(0, j, k) + alg.bracket(data.value(0, j), data.value(0, k))
        out = out + sign * alg.pairing(dv[i], f)
    return out


@_register("bott", "transgression", tol=1e-4,
           identity="d/dt CS(beta_t) = beta_t' . F^{beta_t} - (1/2) d(beta_t . beta_t')")
def check_transgression(ctx, rng):
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    tt = 0.37
    hh = 1e-4
    csdot = (bt.chern_simons(fam.at(tt + hh), g, secs, h=ctx.h)
             - bt.chern_simons(fam.at(tt - hh), g, secs, h=ctx.h)) / (2 * hh)
    rhs = _velocity_dot_curvature(ctx, fam, g, secs, tt)
    pair = fm.AlgebroidForm(alg, 2, lambda gg, s1, s2:
                            alg.pairing(fam.value(tt, gg, s1), fam.tderiv(tt, gg, s2))
                            - alg.pairing(fam.value(tt, gg, s2), fam.tderiv(tt, gg, s1)))
    rhs -= 0.5 * fm.exterior_derivative(pair, h=ctx.h)(g, *secs)
    yield abs(csdot - rhs)


@_register("bott", "cs_period_integral", tol=1e-4,
           identity="int_0^1 beta' . F^{beta_t} dt = Phi* eta + d Q^beta")
def check_cs_period_integral(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    grid = TimeGrid(51)
    lhs = grid.integrate(_velocity_dot_curvature(ctx, fam, g, secs, grid.nodes))

    def phi_eta(gg, *ss):
        vs = [bt.map_theta_right(alg, fam.phi, gg, s.v(gg), h=ctx.h) for s in ss]
        return eta(fam.phi(gg), *vs)

    qform = fm.AlgebroidForm(alg, 2,
                             lambda gg, s1, s2: bt.q_functional(fam, gg, s1, s2, grid, h=ctx.h))
    rhs = phi_eta(g, *secs) + fm.exterior_derivative(qform, h=ctx.h)(g, *secs)
    yield abs(lhs - rhs)


@_register("bott", "cs_period_equivariant", tol=1e-4,
           identity="int beta'.(F_G + x) dt = Phi* eta_G + d_G Q (degree-1 component)")
def check_cs_period_equivariant(ctx, rng):
    alg = ctx.algebra
    phi = lambda gg: gg @ gg
    thl = bt.oneform_theta_left(alg)
    beta0 = fm.AlgebroidForm(alg, 1, lambda g, s: 0.4 * thl(g, s), scalar=False)
    fam = bt.GaugePeriodicFamily(alg, beta0, phi, bump=ctx.bump, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    xi = random_section(alg, rng, bump=ctx.bump)
    xa = albr.generator(alg, x)
    grid = TimeGrid(51)

    ts = grid.nodes
    lhs = grid.integrate(alg.pairing(fam.tderiv(ts, g, xi), x - fam.value(ts, g, xa)))
    w = bt.map_theta_right(alg, phi, g, xi.v(g), h=ctx.h)
    gphi = phi(g)
    rhs = -0.5 * alg.pairing(alg.Ad(alg.inv(gphi), w) + w, x)
    rhs -= bt.q_functional(fam, g, xa, xi, grid, h=ctx.h)
    yield abs(lhs - rhs)


@_register("bott", "q_reparametrization", tol=1e-6,
           identity="Q(beta o phi) = Q(beta) for phi(t+1) = phi(t) + 1")
def check_q_reparam(ctx, rng):
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)

    class Reparam:
        def __init__(self, base, phase, shift):
            self.algebra = base.algebra
            self.phi = base.phi
            self.base, self.phase, self.shift = base, phase, shift

        def _ph(self, t):
            return t + self.phase * np.sin(2 * np.pi * t) + self.shift

        def _dph(self, t):
            return 1.0 + self.phase * 2 * np.pi * np.cos(2 * np.pi * t)

        def value(self, t, g, s):
            return self.base.value(self._ph(t), g, s)

        def tderiv(self, t, g, s):
            return scaled(self._dph(t), self.base.tderiv(self._ph(t), g, s))

    q0 = bt.q_functional(fam, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(Reparam(fam, 0.1, 0.13), g, s1, s2, ctx.grid, h=ctx.h)
    yield abs(q0 - q1)


@_register("bott", "q_inversion", tol=1e-6, identity="Q(beta^-) = -Q(beta)")
def check_q_inversion(ctx, rng):
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)

    class Invert:
        def __init__(self, base):
            self.algebra = base.algebra
            self.phi = lambda gg: base.algebra.inv(base.phi(gg))
            self.base = base

        def value(self, t, g, s):
            return self.base.value(-t, g, s)

        def tderiv(self, t, g, s):
            return -self.base.tderiv(-t, g, s)

    q0 = bt.q_functional(fam, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(Invert(fam), g, s1, s2, ctx.grid, h=ctx.h)
    yield abs(q0 + q1)


@_register("bott", "q_concatenation", tol=1e-5,
           identity="Q(b2 * b1) = Q(b1) + Q(b2) + (1/2) Phi2* theta^L . Phi1* theta^R")
def check_q_concat(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)
    beta0 = _random_gvalued(ctx, rng)
    e0, e1 = alg.random_vector(rng, 0.4), alg.random_vector(rng, 0.4)
    phi1 = lambda gg, m=alg.exp(e0): m @ gg
    phi2 = lambda gg, m=alg.exp(e1): gg @ m
    f1 = bt.GaugePeriodicFamily(alg, beta0, phi1, bump=ctx.bump, h=ctx.h)
    f2 = bt.GaugePeriodicFamily(alg, bt.gauge_transform(phi1, beta0, h=ctx.h), phi2,
                                bump=ctx.bump, h=ctx.h)
    cat = bt.concat_families(f1, f2, alg)
    qc = bt.q_functional(cat, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(f1, g, s1, s2, ctx.grid, h=ctx.h)
    q2 = bt.q_functional(f2, g, s1, s2, ctx.grid, h=ctx.h)
    lam = bt.q_concat_lambda(alg, phi1, phi2, g, s1, s2, h=ctx.h)
    yield abs(qc - q1 - q2 - lam)


@_register("bott", "bott_equivariant_closed", tol=1e-4,
           identity="d_G Upsilon^p_G(0, theta^L) = p(Ad_{g^{-1}} x) - p(x) = 0")
def check_bott_equiv_closed(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    etaPG = bt.eta_p_form(p, conv, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 2)
    xa = albr.generator(alg, x)
    one = fm.AlgebroidForm(alg, 1, lambda gg, *ss: etaPG(x, gg, list(ss)))
    three = fm.AlgebroidForm(alg, 3, lambda gg, *ss: etaPG(x, gg, list(ss)))
    yield abs(fm.exterior_derivative(one, h=ctx.h)(g, *secs) - three(g, xa, *secs))
    yield abs(one(g, xa))


@_register("bott", "flat_family_transgression", tol=1e-3,
           identity="Upsilon_G(0,b_1) - Upsilon_G(0,b_0) = s d_G I (flat family, recorded s)")
def check_flat_family(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    fam = albr.KappaFamily(alg, h_t=ctx.h_t)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 3)
    zero = bt.oneform_zero(alg)
    kap0, kap1 = fam.at(0.0), fam.at(1.0)
    # flatness precondition of the family route
    xa = albr.generator(alg, x)
    pre = 0.0
    for t in (0.2, 0.7):
        kap = fam.at(t)
        dk = fm.exterior_derivative(kap, h=ctx.h)(g, secs[0], secs[1])
        fval = dk + alg.bracket(kap(g, secs[0]), kap(g, secs[1]))
        pre = max(pre, float(np.linalg.norm(fval)),
                  float(np.linalg.norm(-kap(g, xa) + np.asarray(x))))
    iform = fm.AlgebroidForm(alg, 2, lambda gg, *ss:
                             conv.rect_sign * bt.rectangle_integral(p, fam, gg, ss, x=x, h=ctx.h))
    s = conv.lemma_orientation
    lhs3 = bt.upsilon_equivariant(p, [zero, kap1], x, g, secs, conventions=conv, h=ctx.h) \
        - bt.upsilon_equivariant(p, [zero, kap0], x, g, secs, conventions=conv, h=ctx.h)
    rhs3 = s * fm.exterior_derivative(iform, h=ctx.h)(g, *secs)
    lhs1 = bt.upsilon_equivariant(p, [zero, kap1], x, g, secs[:1], conventions=conv, h=ctx.h) \
        - bt.upsilon_equivariant(p, [zero, kap0], x, g, secs[:1], conventions=conv, h=ctx.h)
    rhs1 = s * (-iform(g, xa, secs[0]))
    yield abs(lhs3 - rhs3)
    yield abs(lhs1 - rhs1)
    return {"notes": f"orientation {s:g}; flatness precondition {pre:.2e}"}


@_register("bott", "varpi_p_matches_varpi", tol=1e-5,
           identity="varpi^p_G = varpi for the quadratic polynomial")
def check_varpi_p_matches(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    vpg = bt.varpi_p_equivariant(p, conv, h=ctx.h, h_t=ctx.h_t)
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        x = alg.random_vector(rng)
        got = vpg(x, g, [xi, ze])
        want = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        yield abs(got - want)


@_register("bott", "higher_transgression_theorem", tol=1e-3, groups=("su2",),
           identity="d_G varpi^p_G(x) = a* eta^p_G(x)")
def check_higher_transgression(ctx, rng):
    yield from _transgression_samples(ctx, rng, quadratic_polynomial(ctx.algebra))


def _transgression_samples(ctx, rng, p):
    """Degrees 3 and 1 of d_G varpi^p_G(x) = a* eta^p_G(x) at a random point."""
    alg = ctx.algebra
    conv = ctx.conventions()
    vpg = bt.varpi_p_equivariant(p, conv, h=ctx.h, h_t=ctx.h_t)
    etaPG = bt.eta_p_form(p, conv, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 3)
    vform = fm.AlgebroidForm(alg, 2, lambda gg, *ss: vpg(x, gg, list(ss)))
    lhs3 = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
    rhs3 = etaPG(x, g, secs)
    xa = albr.generator(alg, x)
    lhs1 = -vform(g, xa, secs[0])
    rhs1 = etaPG(x, g, [secs[0]])
    yield abs(lhs3 - rhs3)
    yield abs(lhs1 - rhs1)


@_register("bott", "pressley_segal", tol=1e-6, groups=("su2", "so3", "torus2"),
           identity="sigma^p restricted to loops is the Kac-Moody cocycle int xi'.zeta",
           sub_results=[("pressley_segal_closed", "d_CE sigma^p = 0 on loop triples", 1e-4)])
def check_pressley_segal(ctx, rng):
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    ps = bt.pressley_segal_two_form(p, conv, h=ctx.h, h_t=ctx.h_t)
    ge = alg.identity()
    sign = None
    for _ in range(max(2, ctx.samples // 2)):
        l1 = random_loop_section(alg, rng)
        l2 = random_loop_section(alg, rng)
        ts = ctx.grid.nodes
        km = ctx.grid.integrate(alg.pairing(l1.dprofile(ge, ts), l2.profile(ge, ts)))
        got = ps(ge, [l1, l2])
        if sign is None:
            sign = 1.0 if abs(got - km) < abs(got + km) else -1.0
        yield abs(got - sign * km)
    # pinned value: sin/cos pair on e1 gives pi up to the recorded sign
    e1 = np.zeros(alg.dim); e1[0] = 1.0
    two_pi = 2.0 * np.pi
    s1 = loop_section(alg, lambda t: scaled(np.sin(two_pi * t), e1),
                      lambda t: scaled(two_pi * np.cos(two_pi * t), e1))
    s2 = loop_section(alg, lambda t: scaled(np.cos(two_pi * t), e1),
                      lambda t: scaled(-two_pi * np.sin(two_pi * t), e1))
    spot = ps(ge, [s1, s2])
    yield abs(spot - sign * np.pi * alg.pairing(e1, e1))
    # Chevalley-Eilenberg closedness on Fourier triples
    loops = [random_loop_section(alg, rng) for _ in range(3)]
    ce = 0.0
    for (i, j, k), sgn in (((0, 1, 2), 1.0), ((0, 2, 1), -1.0), ((1, 2, 0), 1.0)):
        br = albr.bracket(loops[i], loops[j], h=ctx.h)
        ce += sgn * ps(ge, [br, loops[k]])
    yield "pressley_segal_closed", abs(ce)
    return {"notes": f"recorded sign {sign:g}; spot value {spot:.9f}"}


@_register("bott", "cubic_polynomial_suite", tol=1e-3, groups=("su2", "heisenberg3"),
           identity="cubic p: equivariant transgression and the explicit-formula degeneration")
def check_cubic_suite(ctx, rng):
    alg = ctx.algebra
    p3 = cubic_polynomial(alg)
    if p3 is None:
        yield 0.0
        return {"notes": "no invariant cubic exists for this algebra; suite skipped"}
    yield from _transgression_samples(ctx, rng, p3)
    # the explicit proportionality degenerates: invariant cubics kill brackets,
    # so both the restricted 4-form and its comparison integral must vanish
    ps3 = bt.pressley_segal_two_form(p3, ctx.conventions(), h=ctx.h, h_t=ctx.h_t)
    ge = alg.identity()
    loops = [random_loop_section(alg, rng) for _ in range(4)]
    kf = albr.KappaFamily(alg, h_t=ctx.h_t)

    ts = ctx.coarse_grid.nodes
    ks = [kf.value(ts, ge, l) for l in loops]
    kd = [kf.tderiv(ts, ge, l) for l in loops]
    explicit = 0.0
    for a in range(4):
        for b in range(4):
            if b == a:
                continue
            i, j = [m for m in range(4) if m not in (a, b)]
            explicit = explicit + fm._perm_sign((a, b, i, j)) * p3(
                ks[a], kd[b], 2.0 * alg.bracket(ks[i], ks[j]))

    yield abs(ps3(ge, loops))
    yield abs(ctx.coarse_grid.integrate(explicit))
    return {"notes": "explicit-formula routes both vanish (invariant cubic kills brackets)"}


# ---------------------------------------------------------------------------
# fusion suite
# ---------------------------------------------------------------------------

@_register("fusion", "concat_generators", tol=1e-10, groups=("su2", "so3", "torus2"),
           identity="generators concatenate to generators; closed-form fusion identity")
def check_concat_generators(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)
        yield fu.fusion_residual(fu.generator_pair(alg, x),
                                 fu.generator_pair(alg, y),
                                 g2, g1, ctx.grid)
        cat = fu.concat(fu.generator_pair(alg, x), g2, g1)
        gm = g2 @ g1
        yield float(np.linalg.norm(
            cat.v(gm) - (alg.Ad(gm, x) - x)))
        yield cat.compatibility_residual(gm)


@_register("fusion", "concat_structure", tol=1e-8,
           identity="a(xi2 * xi1) = Ad_{g2} v1 + v2; seam and associativity")
def check_concat_structure(ctx, rng):
    alg = ctx.algebra
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        pair = fu.pair_from_template(alg, rng, bump=ctx.bump)
        yield fu.composable_residual(pair, g2, g1)
        cat = fu.concat(pair, g2, g1)
        gm = g2 @ g1
        xi2, xi1 = pair
        yield float(np.linalg.norm(
            cat.v(gm) - alg.Ad(g2, xi1.v((g2, g1))) - xi2.v((g2, g1))))
        yield cat.compatibility_residual(gm)
    # associativity after the dyadic reparametrization, on frozen paths
    g3, g2, g1 = [alg.random_group(rng) for _ in range(3)]
    paths = []
    b = ctx.bump
    vals = [alg.random_vector(rng) for _ in range(4)]
    for i in range(3):
        a0, a1 = vals[i], vals[i + 1]
        paths.append(lambda t, a0=a0, a1=a1: a0 + b(t) * (a1 - a0))
    def left(t):
        # ((p3 * p2) * p1)
        if t <= 0.5:
            return paths[0](2 * t)
        inner = 2 * t - 1
        return paths[1](2 * inner) if inner <= 0.5 else paths[2](2 * inner - 1)
    def right(t):
        # (p3 * (p2 * p1))
        if t <= 0.5:
            outer = 2 * t
            return paths[0](2 * outer) if outer <= 0.5 else paths[1](2 * outer - 1)
        return paths[2](2 * t - 1)
    def dyadic(t):
        if t <= 0.25:
            return 2 * t
        if t <= 0.5:
            return t + 0.25
        return 0.5 * t + 0.5
    for t in np.linspace(0.0, 1.0, 33):
        yield float(np.linalg.norm(left(dyadic(t)) - right(t)))


@_register("fusion", "pair_bracket_closure", tol=1e-6,
           identity="the bracket of composable pairs is again composable")
def check_pair_bracket_closure(ctx, rng):
    alg = ctx.algebra
    for _ in range(2):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        p = fu.pair_from_template(alg, rng, bump=ctx.bump)
        q = fu.pair_from_template(alg, rng, bump=ctx.bump)
        yield fu.composable_residual(fu.pair_bracket(p, q, h=ctx.h), g2, g1)


@_register("fusion", "fusion_two_form", tol=1e-4,
           identity="mult! varpi = pr1! varpi + pr2! varpi - lambda")
def check_fusion_two_form(ctx, rng):
    alg = ctx.algebra
    n_pairs = max(ctx.samples, 8)
    for _ in range(n_pairs):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        p = fu.pair_from_template(alg, rng, bump=ctx.bump)
        q = fu.pair_from_template(alg, rng, bump=ctx.bump)
        yield fu.fusion_residual(p, q, g2, g1, ctx.grid)
    return {"pairs": n_pairs}


@_register("fusion", "lambda_cartan_form", tol=1e-4,
           identity="mult* eta = pr1* eta + pr2* eta - d lambda")
def check_lambda_cartan(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        triples = [(alg.random_vector(rng), alg.random_vector(rng)) for _ in range(3)]
        yield fu.mult_eta_residual(alg, eta, g2, g1, triples, h=ctx.h)


# ---------------------------------------------------------------------------
# courant suite
# ---------------------------------------------------------------------------

@_register("courant", "isotropy", tol=1e-10,
           identity="<f(xi), f(xi)> = 0 for f(xi) = (xi, i_xi varpi)")
def check_isotropy(ctx, rng):
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    for _ in range(ctx.samples):
        g = alg.random_group(rng, scale=0.5)
        z = random_twisted_loop(alg, rng, bump=ctx.bump)
        el = fu.CourantElement(z, fm.contract(vform, z))
        yield abs(fu.courant_pairing(el, el, g))


@_register("courant", "loop_action_brackets", tol=1e-4,
           identity="[[f(x1), f(x2)]] = f([x1, x2]) for loop sections")
def check_loop_action(ctx, rng):
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.coarse_grid, h_t=ctx.h_t)
    for _ in range(2):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        f1 = fu.CourantElement(z1, fm.contract(vform, z1))
        f2 = fu.CourantElement(z2, fm.contract(vform, z2))
        cb = fu.courant_bracket(f1, f2, h=ctx.h)
        br = albr.bracket(z1, z2, h=ctx.h)
        yield abs(cb.coform(g, chi) - vform(g, br, chi))
        t0 = rng.uniform(0.2, 0.8)
        yield float(np.linalg.norm(
            cb.section.profile(g, t0) - br.profile(g, t0)))


@_register("courant", "reduced_twist", tol=1e-4,
           identity="[[f(v1)+a1, f(v2)+a2]] = f([v1,v2]) + i_{v2} i_{v1} a* eta + L_{v1} a2 - i_{v2} d a1")
def check_reduced_twist(ctx, rng):
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.coarse_grid, h_t=ctx.h_t)
    eta = fm.cartan_three_form(alg)
    for _ in range(2):
        g = alg.random_group(rng)
        v1, v2, chi = ctx.random_sections(rng, 3)
        c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
        a1 = fm.AlgebroidForm(alg, 1,
                              lambda gg, s: alg.pairing(c1 + alg.Ad(gg, c2), s.v(gg)))
        a2 = fm.AlgebroidForm(alg, 1,
                              lambda gg, s: alg.pairing(c2, s.v(gg))
                              * np.sin(alg.pairing(c1, alg.Ad(gg, c1))))
        yield fu.reduced_bracket_residual(
            vform, eta, v1, v2, a1, a2, chi, g, h=ctx.h)


# ---------------------------------------------------------------------------
# qham suite
# ---------------------------------------------------------------------------

# brackets of sections over the class differentiate on the sphere at this step
_SPHERE_STEP = 1e-3


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@_register("qham", "class_equivariance", tol=1e-10, groups=("su2",),
           identity="Phi(k.m) = k Phi(m) k^{-1} on the conjugacy class")
def check_class_equivariance(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    for _ in range(ctx.samples):
        yield klass.equivariance_residual(
            alg.random_group(rng), _unit(rng))


@_register("qham", "moment_sign_oracle", tol=1e-4, groups=("su2",),
           identity="omega(x_M, .) = -(1/2) Phi*((theta^L + theta^R).x) fixes the sign of omega")
def check_moment_oracle(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    sign, residuals = qh.calibrate_ghjw(klass, rng)
    omega = qh.ghjw_omega(klass, sign)
    yield residuals[sign]
    # pinned magnitude at the quarter-turn example
    n0 = np.array([0.0, 0.0, 1.0])
    t1 = klass.generator_field(np.array([1.0, 0.0, 0.0]), n0)
    t2 = klass.generator_field(np.array([0.0, 1.0, 0.0]), n0)
    mag = abs(omega(n0, t1, t2))
    yield abs(mag - 1.0)
    return {"notes": f"sign {sign:g}; |omega| = {mag:.6f} at the example"}


@_register("qham", "pullback_bracket_laws", tol=1e-4, groups=("su2",),
           identity="[(X,xi),(Y,zeta)] = ([X,Y], -[xi,zeta] + X zeta - Y xi): seam and Jacobi")
def check_pullback_bracket(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)

    def mk():
        a0 = alg.random_vector(rng, 0.5)
        a1v = alg.random_vector(rng, 0.5)
        u0, u1 = rng.standard_normal(3), rng.standard_normal(3)
        af = lambda m: a0 + (m @ u0) * a1v
        xf = lambda m: (np.eye(3) - np.outer(m, m)) @ (u1 + np.cross(m, u0))
        return template_section(alg, af, xf, ctx.bump, base=klass)

    def br(p, q):
        return albr.bracket(p, q, h=_SPHERE_STEP)

    p1, p2, p3 = mk(), mk(), mk()
    yield p1.compatibility_residual(n)
    b12 = br(p1, p2)
    yield b12.compatibility_residual(n)
    t0 = 0.4
    jac = br(b12, p3).profile(n, t0) + br(br(p2, p3), p1).profile(n, t0) \
        + br(br(p3, p1), p2).profile(n, t0)
    yield float(np.linalg.norm(jac))
    # generators pulled back bracket as in the algebra
    x, y = alg.random_vector(rng), alg.random_vector(rng)
    gb = br(albr.generator(alg, x, base=klass), albr.generator(alg, y, base=klass))
    want = -alg.bracket(x, y)  # constant profile of the bracket generator
    yield float(np.linalg.norm(gb.profile(n, 0.3) - want))


@_register("qham", "kernel_theorem", tol=0.0, groups=("su2",),
           identity="ker(a* omega + varpi_M) = g + (ker omega ∩ ker dPhi), probed on a truncated basis",
           sub_results=[
               ("kernel_generator_rows",
                "generator elements pair to zero against the whole probe basis", 1e-5),
               ("kernel_loop_velocity",
                "kernel vectors have stationary loop parts (xi' = 0)", 1e-4),
               ("kernel_basis_seams", "every probe element satisfies its seam", 1e-8)])
def check_kernel_theorem(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    sign, _ = qh.calibrate_ghjw(klass, rng)
    omega = qh.ghjw_omega(klass, sign)
    n = _unit(rng)
    dropped = []
    truncations, thresholds = (4, 6, 8), (1e-7, 1e-8, 1e-9)
    for n_max in truncations:
        basis = qh.TruncatedBasis(klass, n, n_max, ctx.grid)
        yield "kernel_basis_seams", float(basis.seam_residuals().max())
        kernels, s, ndrop = qh.gram_kernel(basis, omega, thresholds)
        for dim, _ in kernels:
            yield abs(dim - 3)
        dropped.append(ndrop)
        yield "kernel_generator_rows", float(np.abs(s[:3, :]).max())
        _, null = kernels[thresholds.index(1e-8)]
        for j in range(null.shape[1]):
            dpath = np.einsum("a,atd->td", null[:, j], basis.derivs)
            yield "kernel_loop_velocity", float(np.abs(dpath).max())
    return {
        "n_max": list(truncations), "thresholds": list(thresholds),
        "notes": f"dimension 3 across sweeps; dependencies dropped {sorted(set(dropped))}"}


@_register("qham", "abelian_kernel", tol=0.0, groups=("torus2",),
           identity="abelian degeneration: kernel = constants + ker dPhi")
def check_abelian_kernel(ctx, rng):
    alg = ctx.algebra
    klass = qh.TrivialClass(alg)
    n = _unit(rng)
    basis = qh.TruncatedBasis(klass, n, 4, ctx.grid)
    [(dim, _)], _, _ = qh.gram_kernel(basis, None)
    expected = alg.dim + 2
    yield float(abs(dim - expected))
    return {"notes": f"dimension {dim}, expected {expected}"}


@_register("qham", "pullback_three_form", tol=1e-4, groups=("su2",),
           identity="d_G varpi_M(x) = a_M* Phi* eta_G(x) on the class")
def check_pullback_three_form(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)

    def mk():
        a0 = alg.random_vector(rng, 0.5)
        u0, u1 = rng.standard_normal(3), rng.standard_normal(3)
        af = lambda m: a0 + (m @ u0) * a0
        xf = lambda m: (np.eye(3) - np.outer(m, m)) @ (u1 + np.cross(m, u0))
        return template_section(alg, af, xf, ctx.bump, base=klass)

    secs = [mk() for _ in range(3)]
    vform = fm.AlgebroidForm(alg, 2, lambda m, p, q: lf.canonical_two_form(
        p, q, m, ctx.coarse_grid, h_t=ctx.h_t))
    dvarpi = fm.exterior_derivative(vform, h=_SPHERE_STEP)
    # the right side vanishes: 3-forms on a surface pull back to zero
    yield abs(dvarpi(n, *secs))
    # degree-1 equivariant component
    x = alg.random_vector(rng)
    xg = albr.generator(alg, x, base=klass)
    lhs1 = -vform(n, xg, secs[0])
    g = klass.point(n)
    w = klass.push_tangent(n, secs[0].xfield(n))
    rhs1 = -0.5 * alg.pairing(alg.Ad(alg.inv(g), w) + w, x)
    yield abs(lhs1 - rhs1)


@_register("qham", "pullback_cochain", tol=1e-4, groups=("su2",),
           identity="d(Phi* omega) = Phi*(d omega) for de Rham forms on the class")
def check_pullback_cochain(ctx, rng):
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)
    c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
    om = fm.AlgebroidForm(alg, 1, lambda g, v: alg.pairing(c1 + alg.Ad(g, c2), v))
    zero = lambda m: np.zeros(alg.dim)

    def field(tv):
        xf = lambda m: (np.eye(3) - np.outer(m, m)) @ tv
        return template_section(alg, zero, xf, ctx.bump, base=klass)

    secs = [field(t) for t in klass.tangent_basis(n)]
    lhs = fm.exterior_derivative(fm.pullback_anchor(om), h=_SPHERE_STEP)(n, *secs)
    rhs = fm.pullback_anchor(fm.de_rham_differential(om, h=ctx.h))(n, *secs)
    yield abs(lhs - rhs)


@_register("qham", "based_projection", tol=1e-10,
           identity="q(xi) = xi - xi(0) vanishes at 0 with a(q xi) = a(xi) + xi(0)_G")
def check_based_projection(ctx, rng):
    alg = ctx.algebra
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        at0, shift = qh.project_based_residuals(xi, g)
        yield at0
        yield shift
        q = qh.project_based(xi)
        yield q.compatibility_residual(g)


@_register("qham", "subalgebroid_projection", tol=1e-6, groups=("heisenberg3",),
           identity="q(E) of an invariant subalgebroid transverse to the generators is bracket-closed")
def check_subalgebroid(ctx, rng):
    alg = ctx.algebra
    g = alg.random_group(rng)
    z = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 0.0])
    two_pi = 2.0 * np.pi
    s1 = loop_section(alg, lambda t: scaled(np.cos(two_pi * t), z),
                      lambda t: scaled(-two_pi * np.sin(two_pi * t), z), name="s1")
    # gg[..., 0, 1] over the point axes, times a function of t over the time axes
    s2 = AlgebroidSection(
        alg, lambda gg, t: scaled(np.cos(two_pi * t), y)
        + scaled(np.multiply.outer(gg[..., 0, 1], t) * np.cos(two_pi * t), z),
        constant_field(alg, np.zeros(3)),
        dprofile=lambda gg, t: scaled(-two_pi * np.sin(two_pi * t), y)
        + scaled(np.multiply.outer(gg[..., 0, 1], np.ones_like(t))
                 * (np.cos(two_pi * t) - two_pi * t * np.sin(two_pi * t)), z),
        name="s2")
    yield s1.compatibility_residual(g)
    yield s2.compatibility_residual(g)
    # hypotheses: E is closed under the bracket and invariant mod E
    br = albr.bracket(s1, s2, h=ctx.h)
    yield float(np.linalg.norm(br.profile(g, 0.3)))
    yield float(np.linalg.norm(br.v(g)))
    x = alg.random_vector(rng)
    act = albr.bracket(albr.generator(alg, x), s2, h=ctx.h)
    t0 = 0.3
    yield float(np.linalg.norm(
        act.profile(g, t0) - x[0] * s1.profile(g, t0)))
    # conclusion: brackets of function multiples of q(E)-sections stay in the span
    q1, q2 = qh.project_based(s1), qh.project_based(s2)
    c0 = alg.random_vector(rng)

    def hfun(gg):
        return np.sin(gg[..., 0, 1] + alg.pairing(c0, c0))

    fq2 = AlgebroidSection(alg, lambda gg, t: _times(hfun(gg), t, q2.profile(gg, t)),
                           lambda gg: _times(hfun(gg), (), q2.v(gg)))
    qbr = albr.bracket(q1, fq2, h=ctx.h)
    ts = np.linspace(0.07, 0.93, 9)
    target = qbr.profile(g, ts).ravel()
    a_mat = np.stack([q1.profile(g, ts).ravel(), q2.profile(g, ts).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, target, rcond=None)
    yield float(np.linalg.norm(target - a_mat @ coef))


@_register("qham", "abelian_collapse", tol=1e-10, groups=("torus2",),
           identity="abelian degeneration: curvature, eta and twist quantities vanish identically")
def check_abelian_collapse(ctx, rng):
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    alpha = _invariant_family(ctx, rng)
    etad = lf.eta_from_data(albr.build_alpha(alg, bump=ctx.bump), ctx.coarse_grid, h=ctx.h)
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v, w, u = [alg.random_vector(rng) for _ in range(3)]
        yield float(np.linalg.norm(
            albr.curvature(alpha, g, 0.37, v, w, h=ctx.h)))
        yield abs(eta(g, v, w, u))
        yield abs(etad(g, v, w, u))
    # twist term of the reduced Courant bracket and the lifted Jacobiator
    g = alg.random_group(rng)
    vs = [alg.random_vector(rng) for _ in range(3)]
    fields = [constant_field(alg, v) for v in vs]
    jac = lf.lifted_jacobiator_scalar(None, albr.build_alpha(alg, bump=ctx.bump),
                                      fields, g, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    yield abs(jac)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def list_checks(group=None, suites=None):
    out = []
    for spec in REGISTRY:
        if suites and spec.suite not in suites:
            continue
        if group and not spec.applicable(group):
            continue
        out.append(spec)
    return out


def result_keys():
    """Every `suite.check` a verify run can report: the valid tolerance keys."""
    return {f"{spec.suite}.{name}" for spec in REGISTRY for name, _, _ in spec.results}


def run_checks(group, config, suites=None, progress=None):
    """Execute the applicable checks for a group; returns CheckResult list.

    Each result carries the measured wall time of the check that produced it.
    """
    ctx = CheckContext(group, config)
    results = []
    for spec in list_checks(group, suites):
        start = time.perf_counter()
        out = spec.fn(ctx)
        elapsed = (time.perf_counter() - start) * 1000.0
        for res in out:
            res.runtime_ms = elapsed
            results.append(res)
        if progress is not None:
            progress(spec, out)
    return results
