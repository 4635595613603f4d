"""Tests for the pipeline simulator and end-to-end system model."""

import numpy as np
import pytest

from repro.genomics import sequence as seq
from repro.genomics.reads import Read, ReadSet
from repro.hardware.ssd import pcie_ssd, sata_ssd
from repro.pipeline import (MAX_SIM_BATCHES, PREP_ORDER, SystemConfig,
                            batches_for_dataset, build_stages,
                            dataset_from_paper, evaluate, geometric_mean,
                            measure_filter_fraction, paper_dataset_models)
from repro.pipeline.accelerators import ISFModel, gem, software_mapper
from repro.pipeline.stages import Stage, simulate_pipeline

from tests.conftest import filter_fraction_oracle, steady_state_throughput


class TestPipelineSimulator:
    def test_single_stage(self):
        result = simulate_pipeline([Stage("s", 10.0)], 100.0, n_batches=4)
        assert result.makespan_s == pytest.approx(10.0)
        assert result.throughput_units_per_s == pytest.approx(10.0)

    def test_bottleneck_dominates_with_many_batches(self):
        stages = [Stage("io", 100.0), Stage("prep", 10.0),
                  Stage("analysis", 50.0)]
        result = simulate_pipeline(stages, 1000.0, n_batches=200)
        # Makespan -> total/bottleneck_rate + fill/drain.
        assert result.makespan_s == pytest.approx(100.0, rel=0.05)
        assert result.bottleneck == "prep"

    def test_pipelining_overlaps_stages(self):
        stages = [Stage("a", 10.0), Stage("b", 10.0)]
        pipelined = simulate_pipeline(stages, 100.0, n_batches=50)
        serial = 2 * 10.0
        assert pipelined.makespan_s < serial * 0.6

    def test_infinite_stage_is_free(self):
        stages = [Stage("a", 10.0), Stage("ideal", float("inf"))]
        result = simulate_pipeline(stages, 100.0, n_batches=10)
        assert result.makespan_s == pytest.approx(10.0)

    def test_zero_units(self):
        result = simulate_pipeline([Stage("a", 1.0)], 0.0)
        assert result.makespan_s == 0.0

    def test_stage_latency_charged_per_batch(self):
        stages = [Stage("a", float("inf"), latency_s=0.5)]
        result = simulate_pipeline(stages, 10.0, n_batches=4)
        assert result.makespan_s == pytest.approx(2.0)

    def test_busy_times_sum(self):
        stages = [Stage("a", 10.0), Stage("b", 20.0)]
        result = simulate_pipeline(stages, 100.0, n_batches=10)
        assert result.stage("a").busy_s == pytest.approx(10.0)
        assert result.stage("b").busy_s == pytest.approx(5.0)

    def test_steady_state(self):
        assert steady_state_throughput(
            [Stage("a", 5.0), Stage("b", 3.0)]) == 3.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            simulate_pipeline([Stage("a", 0.0)], 10.0)


class TestSteadyStateThroughput:
    STAGES = [Stage("io", 120.0), Stage("prep", 30.0),
              Stage("analysis", 75.0)]

    def test_simulated_throughput_converges(self):
        """simulate_pipeline -> steady_state_throughput as batches grow.

        The fill/drain transient shrinks like 1/n_batches, so measured
        throughput approaches the slowest stage's rate from below.
        """
        target = steady_state_throughput(self.STAGES)
        errors = []
        for n_batches in (2, 8, 64, 512):
            result = simulate_pipeline(self.STAGES, 1000.0, n_batches)
            assert result.throughput_units_per_s <= target + 1e-9
            errors.append(target - result.throughput_units_per_s)
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.01 * target

    def test_bottleneck_names_slowest_stage(self):
        result = simulate_pipeline(self.STAGES, 1000.0, n_batches=64)
        slowest = min(self.STAGES, key=lambda s: s.rate_units_per_s)
        assert result.bottleneck == slowest.name == "prep"

    def test_bottleneck_tracks_rate_changes(self):
        stages = [Stage("io", 5.0), Stage("prep", 50.0),
                  Stage("analysis", 75.0)]
        result = simulate_pipeline(stages, 1000.0, n_batches=64)
        assert result.bottleneck == "io"
        assert steady_state_throughput(stages) == 5.0


class TestGeometricMean:
    def test_matches_product_for_small_inputs(self):
        values = [2.0, 8.0]
        assert geometric_mean(values) == (2.0 * 8.0) ** 0.5
        assert geometric_mean([7.25]) == 7.25

    def test_long_large_list_no_overflow(self):
        # 400 values of 1e300: the running product overflows to inf,
        # but the gmean is exactly 1e300.
        values = [1e300] * 400
        assert geometric_mean(values) == pytest.approx(1e300, rel=1e-12)

    def test_long_small_list_no_underflow(self):
        # The running product underflows to 0.0; gmean must not.
        values = [1e-300] * 400
        assert geometric_mean(values) == pytest.approx(1e-300, rel=1e-12)

    def test_mixed_magnitudes(self):
        values = [1e200, 1e-200] * 50
        assert geometric_mean(values) == pytest.approx(1.0)

    def test_zero_yields_zero(self):
        assert geometric_mean([0.0, 10.0]) == 0.0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([2.0, -1.0])


class TestAccelerators:
    def test_gem_short_rate_from_paper(self):
        acc = gem()
        assert acc.bases_per_s(False) == pytest.approx(69.2e6 * 100 * 1e0)

    def test_gem_long_reads_slower(self):
        acc = gem()
        assert acc.bases_per_s(True) < acc.bases_per_s(False)

    def test_software_mapper_much_slower(self):
        assert software_mapper().bases_per_s(False) \
            < gem().bases_per_s(False) / 100

    def test_isf_validation(self):
        with pytest.raises(ValueError):
            ISFModel(1.0)
        assert ISFModel(0.4).surviving_fraction() == pytest.approx(0.6)

    def test_functional_filter_on_clean_reads(self, clean_short_sim):
        sim = clean_short_sim
        frac = measure_filter_fraction(
            sim.read_set.subset(range(100)), sim.donor.sequence)
        # Error-free reads drawn from the donor: nearly all filtered.
        assert frac > 0.9

    def test_functional_filter_on_noisy_reads(self, rs3_small):
        sim = rs3_small
        frac = measure_filter_fraction(
            sim.read_set.subset(range(100)), sim.reference)
        # Donor variants + errors: only a fraction matches exactly.
        assert frac < 0.9

    @pytest.mark.parametrize("against", ["reference", "donor"])
    def test_functional_filter_equals_the_oracle(self, rs2_small, against):
        sim = rs2_small
        genome = sim.reference if against == "reference" \
            else sim.donor.sequence
        frac = measure_filter_fraction(sim.read_set, genome)
        assert 0 < frac < 1
        assert frac == filter_fraction_oracle(sim.read_set, genome)

    def test_functional_filter_edges(self, clean_short_sim):
        """Per read: an exact hit passes on either strand; an ``N`` or
        fewer than ``k`` bases never does."""
        genome = clean_short_sim.donor.sequence
        with_n = genome[1_000:1_100].copy()
        with_n[50] = seq.N_CODE
        reads = {
            "forward": genome[1_000:1_100],
            "with N": with_n,
            "shorter than k": genome[2_000:2_030],
            "reverse complement only":
                seq.reverse_complement(genome[3_000:3_100]),
            "absent": seq.random_sequence(100, np.random.default_rng(3)),
        }
        passed = {name: measure_filter_fraction(ReadSet([Read(codes)]),
                                                genome)
                  for name, codes in reads.items()}
        assert passed == {"forward": 1.0, "with N": 0.0,
                          "shorter than k": 0.0,
                          "reverse complement only": 1.0, "absent": 0.0}
        together = ReadSet([Read(codes) for codes in reads.values()])
        assert measure_filter_fraction(together, genome) == 2 / 5 \
            == filter_fraction_oracle(together, genome)
        assert measure_filter_fraction(ReadSet([]), genome) == 0.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def models(self):
        return paper_dataset_models()

    @pytest.fixture(scope="class")
    def pcie(self):
        return SystemConfig(ssd=pcie_ssd())

    def test_ordering_invariants(self, models, pcie):
        for label, model in models.items():
            rates = {prep: evaluate(prep, model, pcie)
                     .throughput_bases_per_s for prep in PREP_ORDER}
            assert rates["pigz"] < rates["(N)Spr"] <= rates["(N)SprAC"]
            assert rates["(N)SprAC"] < rates["SAGe"]
            assert rates["SAGeSW"] <= rates["SAGe"]

    def test_sage_matches_zero_time_decompressor(self, models, pcie):
        for model in models.values():
            sage = evaluate("SAGe", model, pcie).throughput_bases_per_s
            ideal = evaluate("0TimeDec", model,
                             pcie).throughput_bases_per_s
            assert sage == pytest.approx(ideal, rel=0.02)

    def test_paper_scale_speedups(self, models, pcie):
        """GMean speedups land near Fig. 13 (PCIe): 12.3/3.9/3.0."""
        def gmean_speedup(prep, baseline):
            vals = []
            for model in models.values():
                a = evaluate(prep, model, pcie).throughput_bases_per_s
                b = evaluate(baseline, model, pcie).throughput_bases_per_s
                vals.append(a / b)
            return geometric_mean(vals)

        assert 8.0 < gmean_speedup("SAGe", "pigz") < 18.0
        assert 2.8 < gmean_speedup("SAGe", "(N)Spr") < 5.5
        assert 2.2 < gmean_speedup("SAGe", "(N)SprAC") < 4.5

    def test_isf_speedup_over_sprac(self, models, pcie):
        vals = []
        for model in models.values():
            a = evaluate("SAGeSSD+ISF", model,
                         pcie).throughput_bases_per_s
            b = evaluate("(N)SprAC", model, pcie).throughput_bases_per_s
            vals.append(a / b)
        assert 5.0 < geometric_mean(vals) < 11.0  # paper: 7.8x

    def test_sata_crossovers_match_paper(self, models):
        """§8.1: SAGe beats SAGeSSD+ISF only for RS1/RS4 on SATA."""
        sata = SystemConfig(ssd=sata_ssd())
        winners = {}
        for label, model in models.items():
            sage = evaluate("SAGe", model, sata).throughput_bases_per_s
            isf = evaluate("SAGeSSD+ISF", model,
                           sata).throughput_bases_per_s
            winners[label] = "SAGe" if sage > isf else "ISF"
        assert winners == {"RS1": "SAGe", "RS2": "ISF", "RS3": "ISF",
                           "RS4": "SAGe", "RS5": "ISF"}

    def test_isf_wins_everywhere_on_pcie(self, models, pcie):
        for model in models.values():
            sage = evaluate("SAGe", model, pcie).throughput_bases_per_s
            isf = evaluate("SAGeSSD+ISF", model,
                           pcie).throughput_bases_per_s
            assert isf > sage

    def test_multi_ssd_monotonic(self, models):
        model = models["RS3"]
        rates = [evaluate("SAGeSSD+ISF", model,
                          SystemConfig(ssd=pcie_ssd(), n_ssd=n))
                 .throughput_bases_per_s for n in (1, 2, 4)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_energy_reductions(self, models, pcie):
        """Fig. 16 shape: SAGe ~13x over (N)SprAC; pigz worse."""
        vals_sage, vals_pigz = [], []
        for model in models.values():
            base = evaluate("(N)SprAC", model, pcie).energy.total_joules
            vals_sage.append(
                base / evaluate("SAGe", model, pcie).energy.total_joules)
            vals_pigz.append(
                base / evaluate("pigz", model, pcie).energy.total_joules)
        assert 8.0 < geometric_mean(vals_sage) < 20.0
        assert geometric_mean(vals_pigz) < 0.6

    def test_dataprep_only_speedups(self, models, pcie):
        """Fig. 14 shape: SAGe prep is 1-2 orders over pigz."""
        from repro.pipeline.configs import PREP_TOOLS
        model = models["RS2"]
        stages = build_stages("SAGe", model, pcie)
        sage_prep = min(s.rate_units_per_s for s in stages
                        if s.name != "analysis")
        pigz_prep = PREP_TOOLS["pigz"].software_rate(False)
        assert sage_prep / pigz_prep > 20

    def test_bottleneck_shifts_to_analysis_with_sage(self, models, pcie):
        result = evaluate("SAGe", models["RS2"], pcie)
        assert result.bottleneck == "analysis"
        result = evaluate("(N)Spr", models["RS2"], pcie)
        assert result.bottleneck == "prep"

    def test_batches_for_paper_scale_dataset_capped(self, models):
        # Paper-scale read counts partition into far more blocks than
        # the simulator needs; the derivation caps at MAX_SIM_BATCHES.
        assert batches_for_dataset(models["RS2"]) == MAX_SIM_BATCHES
        small = dataset_from_paper("RS2")
        small.total_bases = small.mean_read_length * 10
        assert batches_for_dataset(small, block_reads=4) == 3

    def test_unknown_prep_rejected(self, models, pcie):
        with pytest.raises(KeyError):
            build_stages("gzip", models["RS1"], pcie)

    def test_dataset_from_paper_has_table2_ratios(self):
        model = dataset_from_paper("RS2")
        assert model.cr("SAGe") == pytest.approx(36.8)
        assert model.cr("pigz") == pytest.approx(12.5)
        assert model.cr("(N)Spr") == pytest.approx(40.2)
