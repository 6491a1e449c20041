"""Expected verdicts for the catalog metrics the benchmark runs.

Written by hand from the README's check vocabulary, its "Documented
deviations" section and ``tests/test_acceptance.py``; nothing here is copied
from the program's output.  A verdict that flips on some seed is a finding:
report it, never edit the row to make it go away.

Columns of ``CHECKS``: minkowski, schwarzschild, desitter_flat, flrw_dust,
perturbed_flat.  ``P`` pass, ``F`` fail, ``-`` not-applicable.
"""

METRICS = ("minkowski", "schwarzschild", "desitter_flat", "flrw_dust", "perturbed_flat")

_STATUS = {"P": "pass", "F": "fail", "-": "not-applicable"}

#                                   mink schw dS  flrw pert
CHECKS = {
    # identities hold on every metric ...
    "trace_identity":                "P P P P P",
    # ... except the circulated 1/3 form, which needs constant R (deviation 1)
    "divergence_formula":            "P P P F F",
    "divergence_adjusted":           "P P P P P",
    "bianchi_identity":              "P P P P P",
    "semisymmetry_trace_identity":   "P P P P P",
    "krupka_oracle_match":           "P P P P P",
    # fixed 1/33 weights only solve the trace system on Einstein metrics (deviation 3)
    "krupka_printed_forms":          "P P P F F",
    "field_equation_trace":          "P P P P P",
    # applies only where Ricci is Codazzi and R is constant
    "weyl_divergence":               "P P P - -",
    # properties: minkowski has all of them; Schwarzschild is vacuum with
    # non-parallel, non-semisymmetric curvature; de Sitter is Einstein,
    # locally symmetric and W*-flat; the dust cosmology and the generic
    # perturbation have none of the Ricci properties
    "ricci_flat":                    "P P F F F",
    "einstein":                      "P P P F F",
    "constant_scalar_curvature":     "P P P F F",
    "codazzi":                       "P P P F F",
    # Ricci vanishes on the two vacuum metrics, so no recurrence 1-form exists
    "ricci_recurrent":               "- - P F F",
    "ricci_semisymmetric":           "P P P F F",
    "wstar_flat":                    "P F P F F",
    # dust is conformally flat, so its divergence vanishes (deviation 2)
    "wstar_divergence_free":         "P P P P F",
    "wstar_parallel":                "P F P F F",
    "wstar_semisymmetric":           "P F P F F",
    # applies only where W* is parallel
    "quarter_rule":                  "P - P - -",
    "t_parallel":                    "P P P F F",
    "t_codazzi":                     "P P P F F",
    "t_semisymmetric":               "P P P F F",
    # applies only where W* is parallel
    "em_distribution":               "P - P - -",
    # applies only to pressureless matter with vanishing W*
    "dust_vacuum":                   "P - - - -",
    # pairings: the Codazzi <=> divergence-free biconditional breaks on dust
    "pairing_codazzi_divergence":    "P P P F P",
    "pairing_einstein_trace":        "P P P P P",
    "pairing_parallel_semisymmetric": "P P P P P",
    "pairing_flat_parallel_t":       "P P P P P",
    "pairing_flat_lambda_fluid":     "P P P P P",
    "pairing_semisymmetric_t":       "P P P P P",
}

# classify reports the same conditions as the property checks, as booleans
CLASSIFY_FLAGS = {
    "ricci_flat": "ricci_flat",
    "einstein": "einstein",
    "constant_scalar_curvature": "constant_scalar_curvature",
    "codazzi_ricci": "codazzi",
    "ricci_recurrent": "ricci_recurrent",
    "ricci_semisymmetric": "ricci_semisymmetric",
    "wstar_semisymmetric": "wstar_semisymmetric",
    "wstar_flat": "wstar_flat",
    "wstar_divergence_free": "wstar_divergence_free",
    "wstar_parallel": "wstar_parallel",
    "T_semisymmetric": "t_semisymmetric",
    "T_codazzi": "t_codazzi",
    "T_parallel": "t_parallel",
}

# classify pairing name -> the check that reports it
CLASSIFY_PAIRINGS = {
    "codazzi_iff_divergence_free": "pairing_codazzi_divergence",
    "einstein_iff_trace_vanishes": "pairing_einstein_trace",
    "parallel_implies_t_semisymmetric": "pairing_parallel_semisymmetric",
    "flat_implies_constant_scalar_and_parallel_t": "pairing_flat_parallel_t",
    "flat_implies_lambda_like_fluid": "pairing_flat_lambda_fluid",
    "t_semisymmetric_iff_ricci_semisymmetric": "pairing_semisymmetric_t",
}

_BOOL = {"pass": True, "fail": False, "not-applicable": None}


def expected_table(checks=CHECKS):
    """metric -> expected check statuses, classify payload parts and exit codes."""
    table = {}
    for col, metric in enumerate(METRICS):
        statuses = {name: _STATUS[row.split()[col]] for name, row in checks.items()}
        pairings = {p: _BOOL[statuses[c]] for p, c in CLASSIFY_PAIRINGS.items()}
        table[metric] = {
            "checks": statuses,
            "check_exit": 1 if "fail" in statuses.values() else 0,
            "flags": {f: _BOOL[statuses[c]] for f, c in CLASSIFY_FLAGS.items()},
            "pairings": pairings,
            "classify_exit": 1 if False in pairings.values() else 0,
            "compute_exit": 0,
        }
    return table
