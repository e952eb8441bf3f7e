"""Exact homological algebra over the integers: Smith normal form,
finitely generated abelian groups with Hom and Ext, free (co)chain
complexes with verified universal-coefficient certificates, derived limits
of towers and telescopes, set-function homology on finite closure models,
and a harness for tautness-style exact sequences of neighborhood systems.

Everything is integer arithmetic; every nontrivial computation carries or
re-checks its own certificate.
"""

from .matrices import (HermiteForm, IntMatrix, SmithForm, determinant,
                       hermite_form, hstack, kernel_basis, column_basis,
                       smith_normal_form, solve_columns)
from .groups import (ExtGroup, GroupMap, GroupParseError, HomGroup,
                     IllFormedMap, PresentedGroup, Subquotient, cokernel,
                     image, inverse, kernel, kernel_lattice, parse_group)
from .complexes import (CertificateFailure, CoefficientComplex,
                        DegreeOutOfRange, FreeComplex, NotFree,
                        UctCertificate, UctSuite, uct_certificate,
                        uct_certificates)
from .limits import (IsoReport, LimOutcome, MalformedTower, SixTermReport,
                     Telescope, Tower, colim, ext_tower, hom_into_colim_check,
                     hom_tower, lim, lim1, lim_higher, six_term_check)
from .kolmogoroff import (BlockMismatch, ConditionViolated, FiniteModel,
                          FreeBasisCertificate, KolmogoroffChain,
                          NerveComplex, NotACover,
                          NotARefinement, Partition, PipelineMismatch,
                          RefinementMap, arc_circle, free_colimit_basis,
                          kolmogoroff_homology, kolmogoroff_uct_check,
                          model_preset, mosaic, octahedron, projective_plane,
                          regularize)
from .tautness import (InconsistentData, LimNotExact, NeighborhoodTower,
                       SequenceReport, SubspaceData, comparison_into_limit,
                       four_term_sequence, milnor_sequence, reports_consistent,
                       solenoid_tower, tautness_preset, tautness_sequence,
                       trivially_taut_tower)

__version__ = "0.1.0"
