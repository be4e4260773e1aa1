"""The six evaluation workflows, parameterised to the paper's Table I.

| workflow  | task types | avg instances/type |
|-----------|-----------:|-------------------:|
| eager     | 13         | 121                |
| methylseq | 9          | 100                |
| chipseq   | 30         | 82                 |
| rnaseq    | 30         | 39                 |
| mag       | 8          | 720                |
| iwd       | 5          | 332                |

Task names follow the real nf-core pipelines where the paper names them:
``lcextrap``, ``mpileup`` (eager), ``genomecov`` (chipseq),
``MarkDuplicates`` / ``BaseRecalibrator`` / ``FastQC`` (rnaseq),
``Prokka`` with 1171 instances (mag, Fig. 12), and ``Preprocessing``
(iwd).  Memory archetypes are chosen to match the shapes in Figs. 1-2:
MarkDuplicates linear (≈18-22 GB over 2-5 GB inputs), BaseRecalibrator
bimodal (0.5-3.5 GB with two regimes), lcextrap input-independent with a
heavy tail (0.2-1 GB around a 550 MB median), genomecov saturating at a
4-7 GB plateau.

Resource profiles per workflow are tuned so the Fig. 7 utilisation
distributions have the documented character (methylseq I/O- and
CPU-intensive, mag I/O-read heavy, iwd lightweight).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workflow.archetypes import (
    BimodalMemory,
    ConstantHeavyTailMemory,
    LinearMemory,
    PolynomialMemory,
    RuntimeModel,
    SaturatingMemory,
    SublinearMemory,
)
from repro.workflow.generator import TaskTypeSpec, WorkflowSpec, generate_trace
from repro.workflow.task import WorkflowTrace

__all__ = [
    "WORKFLOW_NAMES",
    "build_workflow_spec",
    "build_workflow_trace",
    "build_all_traces",
]

WORKFLOW_NAMES = ("eager", "methylseq", "chipseq", "rnaseq", "mag", "iwd")


def _rt(
    base: float,
    per_gb: float,
    cpu: float = 150.0,
    io_read: float = 1.0,
    io_write: float = 0.5,
    jitter: float = 0.2,
) -> RuntimeModel:
    return RuntimeModel(
        base_hours=base,
        hours_per_gb=per_gb,
        cpu_percent=cpu,
        io_read_factor=io_read,
        io_write_factor=io_write,
        jitter_sigma=jitter,
    )


def _eager_spec() -> WorkflowSpec:
    """Ancient-DNA genome reconstruction: 13 types, 1573 instances."""
    t = [
        TaskTypeSpec("fastqc", SublinearMemory(coef=12.0, exponent=0.55, intercept_mb=220.0),
                     137, input_median_mb=2500, input_sigma=0.7,
                     runtime=_rt(0.02, 0.01, cpu=110)),
        TaskTypeSpec("adapter_removal", LinearMemory(slope=0.12, intercept_mb=300.0, noise_frac=0.05),
                     137, input_median_mb=2500, input_sigma=0.7,
                     runtime=_rt(0.03, 0.02, cpu=220, io_write=1.0)),
        TaskTypeSpec("bwa_align", LinearMemory(slope=1.6, intercept_mb=6500.0, noise_frac=0.04),
                     137, input_median_mb=2200, input_sigma=0.9,
                     runtime=_rt(0.15, 0.08, cpu=900, io_read=1.2)),
        TaskTypeSpec("samtools_filter", SublinearMemory(coef=30.0, exponent=0.5, intercept_mb=350.0),
                     137, input_median_mb=1800, input_sigma=0.6,
                     runtime=_rt(0.03, 0.02, cpu=160)),
        TaskTypeSpec("dedup", LinearMemory(slope=1.3, intercept_mb=1500.0, noise_frac=0.09),
                     137, input_median_mb=1500, input_sigma=0.9,
                     runtime=_rt(0.05, 0.04, cpu=130)),
        TaskTypeSpec("damageprofiler", ConstantHeavyTailMemory(median_mb=900.0, sigma=0.25),
                     137, input_median_mb=1200, input_sigma=0.5,
                     runtime=_rt(0.02, 0.01, cpu=100)),
        TaskTypeSpec("qualimap", PolynomialMemory(coef=0.0018, exponent=1.7, intercept_mb=900.0),
                     130, input_median_mb=1400, input_sigma=0.5,
                     runtime=_rt(0.04, 0.02, cpu=140)),
        TaskTypeSpec("preseq_ccurve", ConstantHeavyTailMemory(median_mb=420.0, sigma=0.3),
                     120, input_median_mb=1000, input_sigma=0.5,
                     runtime=_rt(0.015, 0.005, cpu=100)),
        # Fig. 1: lcextrap spans ~200 MB-1 GB with a ~550 MB median.
        TaskTypeSpec("lcextrap", ConstantHeavyTailMemory(median_mb=550.0, sigma=0.35),
                     120, input_median_mb=1000, input_sigma=0.5,
                     runtime=_rt(0.015, 0.005, cpu=100)),
        # Fig. 1: mpileup sits below ~400 MB.
        TaskTypeSpec("mpileup", SublinearMemory(coef=9.0, exponent=0.5, intercept_mb=90.0, noise_frac=0.2),
                     120, input_median_mb=900, input_sigma=0.5,
                     runtime=_rt(0.03, 0.015, cpu=120)),
        TaskTypeSpec("genotyping", BimodalMemory(threshold_mb=1200.0, low_mb=2200.0, high_mb=7800.0, slope=0.4, noise_frac=0.03),
                     120, input_median_mb=1100, input_sigma=0.55,
                     runtime=_rt(0.08, 0.04, cpu=200)),
        TaskTypeSpec("sexdeterrmine", ConstantHeavyTailMemory(median_mb=260.0, sigma=0.2),
                     70, input_median_mb=600, input_sigma=0.4,
                     runtime=_rt(0.01, 0.004, cpu=100)),
        TaskTypeSpec("multiqc", LinearMemory(slope=0.4, intercept_mb=600.0, noise_frac=0.1),
                     71, input_median_mb=300, input_sigma=0.4,
                     runtime=_rt(0.02, 0.005, cpu=100)),
    ]
    return WorkflowSpec("eager", t, dag=None)


def _methylseq_spec() -> WorkflowSpec:
    """Bisulfite sequencing: 9 types, 900 instances; the heavyweight.

    Long-running, high-memory alignment tasks dominate (bismark), which is
    why methylseq carries the bulk of the presets' wastage in Table II.
    """
    t = [
        TaskTypeSpec("fastqc", SublinearMemory(coef=12.0, exponent=0.55, intercept_mb=220.0),
                     110, input_median_mb=4000, input_sigma=0.6,
                     runtime=_rt(0.03, 0.01, cpu=110)),
        TaskTypeSpec("trim_galore", LinearMemory(slope=0.1, intercept_mb=350.0, noise_frac=0.0, noise_mb=22.0),
                     110, input_median_mb=4000, input_sigma=0.6,
                     runtime=_rt(0.05, 0.03, cpu=240, io_write=1.0)),
        TaskTypeSpec("bismark_align", LinearMemory(slope=4.2, intercept_mb=14000.0, noise_frac=0.0, noise_mb=260.0),
                     110, input_median_mb=3600, input_sigma=0.55,
                     runtime=_rt(0.8, 0.3, cpu=1100, io_read=1.5, io_write=2.0)),
        TaskTypeSpec("deduplicate_bismark", LinearMemory(slope=1.8, intercept_mb=3500.0, noise_frac=0.0, noise_mb=110.0),
                     110, input_median_mb=3000, input_sigma=0.55,
                     runtime=_rt(0.15, 0.08, cpu=140, io_write=1.5)),
        TaskTypeSpec("methylation_extractor", PolynomialMemory(coef=0.0009, exponent=1.8, intercept_mb=2500.0, noise_frac=0.0, noise_mb=130.0),
                     110, input_median_mb=2800, input_sigma=0.5,
                     runtime=_rt(0.3, 0.15, cpu=350, io_read=2.0, io_write=3.0)),
        TaskTypeSpec("bismark_report", ConstantHeavyTailMemory(median_mb=450.0, sigma=0.25),
                     110, input_median_mb=500, input_sigma=0.4,
                     runtime=_rt(0.01, 0.005, cpu=100)),
        TaskTypeSpec("qualimap", PolynomialMemory(coef=0.0018, exponent=1.7, intercept_mb=900.0),
                     110, input_median_mb=2000, input_sigma=0.5,
                     runtime=_rt(0.08, 0.04, cpu=150)),
        TaskTypeSpec("preseq_lcextrap", ConstantHeavyTailMemory(median_mb=600.0, sigma=0.35),
                     80, input_median_mb=1500, input_sigma=0.5,
                     runtime=_rt(0.02, 0.008, cpu=100)),
        TaskTypeSpec("multiqc", LinearMemory(slope=0.4, intercept_mb=700.0, noise_frac=0.1),
                     50, input_median_mb=400, input_sigma=0.4,
                     runtime=_rt(0.02, 0.005, cpu=100)),
    ]
    return WorkflowSpec("methylseq", t, dag=None)


def _chipseq_spec() -> WorkflowSpec:
    """ChIP sequencing: 30 types, 2460 instances; many small, short tasks."""
    t: list[TaskTypeSpec] = []

    def add(name, arch, n, med, sig=0.5, rt=None):
        t.append(
            TaskTypeSpec(name, arch, n, input_median_mb=med, input_sigma=sig,
                         runtime=rt or _rt(0.015, 0.01, cpu=130))
        )

    add("fastqc", SublinearMemory(coef=12.0, exponent=0.55, intercept_mb=220.0), 90, 1500, 0.6)
    add("trimgalore", LinearMemory(slope=0.1, intercept_mb=300.0), 90, 1500, 0.6,
        _rt(0.02, 0.015, cpu=200))
    add("bwa_mem", LinearMemory(slope=1.4, intercept_mb=5200.0, noise_frac=0.0, noise_mb=110.0), 90, 1300, 0.55,
        _rt(0.08, 0.05, cpu=800))
    add("samtools_sort", LinearMemory(slope=0.9, intercept_mb=800.0, noise_frac=0.0, noise_mb=35.0), 90, 1100, 0.5,
        _rt(0.03, 0.02, cpu=300))
    add("samtools_flagstat", ConstantHeavyTailMemory(median_mb=120.0, sigma=0.2), 90, 900, 0.5)
    add("samtools_idxstats", ConstantHeavyTailMemory(median_mb=90.0, sigma=0.2), 90, 900, 0.5)
    add("samtools_stats", SublinearMemory(coef=8.0, exponent=0.5, intercept_mb=110.0, noise_frac=0.0, noise_mb=9.0), 90, 900, 0.5)
    add("picard_markduplicates", LinearMemory(slope=1.2, intercept_mb=2800.0, noise_frac=0.0, noise_mb=80.0), 90, 1000, 0.5,
        _rt(0.05, 0.03, cpu=140))
    add("picard_collectmetrics", ConstantHeavyTailMemory(median_mb=1600.0, sigma=0.2), 90, 900, 0.5)
    add("preseq", ConstantHeavyTailMemory(median_mb=480.0, sigma=0.3), 90, 800, 0.5)
    add("phantompeakqualtools", PolynomialMemory(coef=0.004, exponent=1.6, intercept_mb=1200.0, noise_frac=0.0, noise_mb=55.0), 90, 700, 0.5)
    # Fig. 1: genomecov plateaus in the 4-7 GB band.
    add("genomecov", SaturatingMemory(plateau_mb=5500.0, scale_mb=1500.0, half_input_mb=300.0), 90, 700, 0.6,
        _rt(0.03, 0.02, cpu=110))
    add("bedgraphtobigwig", LinearMemory(slope=0.5, intercept_mb=400.0, noise_frac=0.0, noise_mb=16.0), 90, 600, 0.5)
    add("computematrix", PolynomialMemory(coef=0.006, exponent=1.5, intercept_mb=900.0, noise_frac=0.0, noise_mb=45.0), 90, 500, 0.5,
        _rt(0.04, 0.02, cpu=200))
    add("plotprofile", ConstantHeavyTailMemory(median_mb=300.0, sigma=0.2), 90, 300, 0.4)
    add("plotheatmap", ConstantHeavyTailMemory(median_mb=650.0, sigma=0.2), 90, 300, 0.4)
    add("plotfingerprint", SublinearMemory(coef=25.0, exponent=0.5, intercept_mb=500.0, noise_frac=0.0, noise_mb=22.0), 90, 500, 0.5)
    add("macs2_callpeak", BimodalMemory(threshold_mb=700.0, low_mb=900.0, high_mb=3400.0, slope=0.3), 90, 650, 0.6,
        _rt(0.04, 0.02, cpu=120))
    add("frip_score", ConstantHeavyTailMemory(median_mb=240.0, sigma=0.25), 90, 400, 0.5)
    add("homer_annotatepeaks", LinearMemory(slope=0.8, intercept_mb=1100.0, noise_frac=0.0, noise_mb=35.0), 90, 400, 0.5)
    add("plot_macs2_qc", ConstantHeavyTailMemory(median_mb=280.0, sigma=0.2), 90, 200, 0.4)
    add("consensus_peaks", SublinearMemory(coef=18.0, exponent=0.6, intercept_mb=300.0, noise_frac=0.0, noise_mb=16.0), 90, 350, 0.5)
    add("featurecounts", LinearMemory(slope=0.6, intercept_mb=700.0, noise_frac=0.0, noise_mb=25.0), 90, 600, 0.5)
    add("deseq2_qc", PolynomialMemory(coef=0.01, exponent=1.4, intercept_mb=800.0, noise_frac=0.0, noise_mb=35.0), 90, 300, 0.5)
    add("igv_session", ConstantHeavyTailMemory(median_mb=150.0, sigma=0.15), 50, 100, 0.3)
    add("ucsc_bigwigaverage", SublinearMemory(coef=10.0, exponent=0.5, intercept_mb=200.0, noise_frac=0.0, noise_mb=9.0), 50, 300, 0.4)
    add("khmer_uniquekmers", ConstantHeavyTailMemory(median_mb=900.0, sigma=0.2), 50, 400, 0.4)
    add("cutadapt_summary", ConstantHeavyTailMemory(median_mb=110.0, sigma=0.15), 50, 200, 0.3)
    add("bampe_rm_orphan", LinearMemory(slope=0.7, intercept_mb=500.0, noise_frac=0.0, noise_mb=22.0), 50, 600, 0.5)
    add("multiqc", LinearMemory(slope=0.4, intercept_mb=650.0, noise_frac=0.1), 50, 300, 0.4)
    return WorkflowSpec("chipseq", t, dag=None)


def _rnaseq_spec() -> WorkflowSpec:
    """RNA sequencing: 30 types, 1170 instances; rich model-class diversity.

    Contains the paper's named tasks: ``FastQC`` and ``MarkDuplicates``
    (Fig. 10 alpha sweep), plus ``BaseRecalibrator`` (Fig. 2 bimodal).
    """
    t: list[TaskTypeSpec] = []

    def add(name, arch, n, med, sig=0.5, rt=None):
        t.append(
            TaskTypeSpec(name, arch, n, input_median_mb=med, input_sigma=sig,
                         runtime=rt or _rt(0.02, 0.012, cpu=140))
        )

    add("FastQC", SublinearMemory(coef=12.0, exponent=0.55, intercept_mb=220.0), 40, 2000, 0.6)
    add("trimgalore", SublinearMemory(coef=3.2, exponent=0.72, intercept_mb=290.0, noise_frac=0.0, noise_mb=14.0), 40, 2000, 0.6,
        _rt(0.03, 0.02, cpu=220))
    add("star_align", LinearMemory(slope=2.2, intercept_mb=26000.0, noise_frac=0.0, noise_mb=260.0), 40, 1800, 0.55,
        _rt(0.2, 0.1, cpu=1200, io_read=1.4))
    add("star_genomegenerate", ConstantHeavyTailMemory(median_mb=31000.0, sigma=0.005, cap_mb=40000.0), 35, 3000, 0.3,
        _rt(0.3, 0.1, cpu=800))
    # Fig. 2: ~18-22 GB over 2-5 GB inputs -> slope ~1.3 GB/GB + 15.5 GB.
    add("MarkDuplicates", LinearMemory(slope=1.33, intercept_mb=15800.0, noise_frac=0.0, noise_mb=170.0), 40, 3300, 0.35,
        _rt(0.08, 0.05, cpu=150))
    # Fig. 2: bimodal 0.5-3.5 GB, regime switch near 600 MB input.
    add("BaseRecalibrator", BimodalMemory(threshold_mb=600.0, low_mb=800.0, high_mb=3000.0, slope=0.15), 40, 600, 0.45,
        _rt(0.05, 0.03, cpu=130))
    add("ApplyBQSR", PolynomialMemory(coef=0.45, exponent=1.18, intercept_mb=1500.0, noise_frac=0.0, noise_mb=55.0), 40, 800, 0.5)
    add("salmon_quant", SublinearMemory(coef=110.0, exponent=0.55, intercept_mb=1400.0, noise_frac=0.0, noise_mb=60.0), 40, 1500, 0.5,
        _rt(0.05, 0.03, cpu=600))
    add("salmon_index", ConstantHeavyTailMemory(median_mb=12000.0, sigma=0.008, cap_mb=20000.0), 35, 2500, 0.3)
    add("rsem_calculateexpression", PolynomialMemory(coef=0.002, exponent=1.7, intercept_mb=3500.0, noise_frac=0.0, noise_mb=110.0), 40, 1500, 0.5,
        _rt(0.1, 0.06, cpu=700))
    add("samtools_sort", PolynomialMemory(coef=0.32, exponent=1.2, intercept_mb=750.0, noise_frac=0.0, noise_mb=35.0), 40, 1400, 0.5,
        _rt(0.03, 0.02, cpu=300))
    add("samtools_index", ConstantHeavyTailMemory(median_mb=100.0, sigma=0.2), 40, 1200, 0.5)
    add("samtools_stats", SublinearMemory(coef=8.0, exponent=0.5, intercept_mb=120.0, noise_frac=0.0, noise_mb=10.0), 40, 1200, 0.5)
    add("picard_collectrnaseqmetrics", PolynomialMemory(coef=0.003, exponent=1.6, intercept_mb=1500.0, noise_frac=0.0, noise_mb=70.0), 40, 1200, 0.5)
    add("stringtie", PolynomialMemory(coef=0.2, exponent=1.25, intercept_mb=800.0, noise_frac=0.0, noise_mb=30.0), 40, 900, 0.5)
    add("featurecounts", PolynomialMemory(coef=0.28, exponent=1.15, intercept_mb=680.0, noise_frac=0.0, noise_mb=28.0), 40, 900, 0.5)
    add("bedtools_genomecov", SaturatingMemory(plateau_mb=4800.0, scale_mb=1400.0, half_input_mb=350.0), 40, 800, 0.6)
    add("bedgraphtobigwig", PolynomialMemory(coef=0.24, exponent=1.15, intercept_mb=380.0, noise_frac=0.0, noise_mb=18.0), 40, 600, 0.5)
    add("qualimap_rnaseq", PolynomialMemory(coef=0.0022, exponent=1.7, intercept_mb=1000.0, noise_frac=0.0, noise_mb=55.0), 40, 1000, 0.5)
    add("dupradar", SublinearMemory(coef=30.0, exponent=0.55, intercept_mb=700.0, noise_frac=0.0, noise_mb=35.0), 40, 800, 0.5)
    add("rseqc_readduplication", PolynomialMemory(coef=0.005, exponent=1.5, intercept_mb=900.0, noise_frac=0.0, noise_mb=45.0), 40, 700, 0.5)
    add("rseqc_junctionsaturation", BimodalMemory(threshold_mb=500.0, low_mb=700.0, high_mb=2400.0, slope=0.2), 40, 500, 0.5)
    add("rseqc_bamstat", ConstantHeavyTailMemory(median_mb=350.0, sigma=0.25), 40, 600, 0.5)
    add("rseqc_inferexperiment", ConstantHeavyTailMemory(median_mb=200.0, sigma=0.2), 40, 500, 0.5)
    add("preseq_lcextrap", ConstantHeavyTailMemory(median_mb=520.0, sigma=0.35), 35, 700, 0.5)
    add("deseq2_qc", PolynomialMemory(coef=0.01, exponent=1.4, intercept_mb=850.0), 35, 300, 0.5)
    add("tximport", PolynomialMemory(coef=0.3, exponent=1.12, intercept_mb=550.0, noise_frac=0.0, noise_mb=20.0), 35, 300, 0.4)
    add("gtf_filter", ConstantHeavyTailMemory(median_mb=180.0, sigma=0.15), 35, 200, 0.3)
    add("bbsplit", SublinearMemory(coef=90.0, exponent=0.5, intercept_mb=4500.0, noise_frac=0.0, noise_mb=90.0), 35, 1200, 0.5)
    add("multiqc", SublinearMemory(coef=4.5, exponent=0.75, intercept_mb=620.0, noise_frac=0.0, noise_mb=25.0), 35, 300, 0.4)
    return WorkflowSpec("rnaseq", t, dag=None)


def _mag_spec() -> WorkflowSpec:
    """Metagenome assembly: 8 types, 5760 instances; Prokka has 1171 (Fig. 12)."""
    t = [
        TaskTypeSpec("fastqc_raw", SublinearMemory(coef=12.0, exponent=0.55, intercept_mb=230.0, noise_frac=0.0, noise_mb=12.0),
                     900, input_median_mb=2200, input_sigma=0.6,
                     runtime=_rt(0.02, 0.008, cpu=110, io_read=1.2)),
        TaskTypeSpec("fastp", LinearMemory(slope=0.12, intercept_mb=420.0, noise_frac=0.0, noise_mb=18.0),
                     900, input_median_mb=2200, input_sigma=0.6,
                     runtime=_rt(0.025, 0.012, cpu=260, io_read=1.5, io_write=1.2)),
        TaskTypeSpec("bowtie2_removal", LinearMemory(slope=1.1, intercept_mb=3400.0, noise_frac=0.0, noise_mb=110.0),
                     900, input_median_mb=1900, input_sigma=0.55,
                     runtime=_rt(0.05, 0.03, cpu=700, io_read=1.6)),
        TaskTypeSpec("megahit", PolynomialMemory(coef=0.004, exponent=1.6, intercept_mb=5200.0, noise_frac=0.0, noise_mb=150.0),
                     450, input_median_mb=2400, input_sigma=0.45, input_max_mb=6144.0,
                     runtime=_rt(0.15, 0.08, cpu=1000, io_read=2.0, io_write=2.5)),
        TaskTypeSpec("metabat2", SublinearMemory(coef=60.0, exponent=0.6, intercept_mb=1100.0, noise_frac=0.0, noise_mb=45.0),
                     450, input_median_mb=1500, input_sigma=0.5,
                     runtime=_rt(0.06, 0.03, cpu=300)),
        # Fig. 12: 1171 Prokka instances. Mildly super-linear with a
        # genuine noise floor, so the relative error starts high while
        # the nonlinear models warm up and declines visibly over the
        # campaign (the paper shows ~10.5% -> ~8%).
        TaskTypeSpec("Prokka", PolynomialMemory(coef=0.18, exponent=1.5, intercept_mb=800.0, noise_frac=0.07),
                     1171, input_median_mb=450, input_sigma=0.75,
                     runtime=_rt(0.04, 0.02, cpu=350, io_write=1.5)),
        TaskTypeSpec("quast", ConstantHeavyTailMemory(median_mb=700.0, sigma=0.25),
                     450, input_median_mb=500, input_sigma=0.5,
                     runtime=_rt(0.015, 0.006, cpu=120)),
        TaskTypeSpec("bin_summary", SublinearMemory(coef=15.0, exponent=0.5, intercept_mb=280.0, noise_frac=0.0, noise_mb=10.0),
                     539, input_median_mb=300, input_sigma=0.4,
                     runtime=_rt(0.01, 0.004, cpu=100)),
    ]
    return WorkflowSpec("mag", t, dag=None)


def _iwd_spec() -> WorkflowSpec:
    """Remote-sensing hydrology (images -> graphs): 5 types, 1660 instances.

    Tiny, fast tasks — the smallest wastage numbers in Table II by three
    orders of magnitude.  One heavy-tailed type keeps conservative
    baselines (node-max retries) expensive relative to the presets.
    """
    t = [
        # Fig. 1: "Preprocessing" sits in the 2-4.5 GB band.
        TaskTypeSpec("Preprocessing", ConstantHeavyTailMemory(median_mb=3000.0, sigma=0.12, cap_mb=4800.0),
                     400, input_median_mb=120, input_sigma=0.4,
                     runtime=_rt(0.004, 0.003, cpu=160, jitter=0.15)),
        TaskTypeSpec("EdgeDetection", LinearMemory(slope=2.5, intercept_mb=350.0, noise_frac=0.05),
                     400, input_median_mb=90, input_sigma=0.4,
                     runtime=_rt(0.003, 0.002, cpu=220, jitter=0.15)),
        TaskTypeSpec("GraphConstruction", PolynomialMemory(coef=0.9, exponent=1.45, intercept_mb=260.0),
                     400, input_median_mb=70, input_sigma=0.4,
                     runtime=_rt(0.003, 0.002, cpu=140, jitter=0.15)),
        TaskTypeSpec("GraphAnalysis", ConstantHeavyTailMemory(median_mb=480.0, sigma=0.6, cap_mb=6000.0),
                     300, input_median_mb=60, input_sigma=0.4,
                     runtime=_rt(0.004, 0.002, cpu=130, jitter=0.15)),
        TaskTypeSpec("Postprocessing", SublinearMemory(coef=14.0, exponent=0.5, intercept_mb=140.0),
                     160, input_median_mb=50, input_sigma=0.4,
                     runtime=_rt(0.002, 0.001, cpu=110, jitter=0.15)),
    ]
    return WorkflowSpec("iwd", t, dag=None)


_BUILDERS = {
    "eager": _eager_spec,
    "methylseq": _methylseq_spec,
    "chipseq": _chipseq_spec,
    "rnaseq": _rnaseq_spec,
    "mag": _mag_spec,
    "iwd": _iwd_spec,
}


def build_workflow_spec(name: str) -> WorkflowSpec:
    """Return the :class:`WorkflowSpec` for one of the six paper workflows."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown workflow {name!r}; choose from {WORKFLOW_NAMES}"
        ) from None


def build_workflow_trace(
    name: str, seed: int = 0, scale: float = 1.0
) -> WorkflowTrace:
    """Generate a trace for one paper workflow.

    ``scale`` < 1 subsamples each task type proportionally — the benchmark
    harness uses this to keep full-grid runs fast while preserving the
    per-type input distributions.
    """
    trace = generate_trace(build_workflow_spec(name), seed=seed)
    if scale != 1.0:
        trace = trace.subsample(scale, seed=seed + 1)
    return trace


def build_all_traces(seed: int = 0, scale: float = 1.0) -> dict[str, WorkflowTrace]:
    """Traces for all six workflows, keyed by workflow name."""
    return {
        name: build_workflow_trace(name, seed=seed, scale=scale)
        for name in WORKFLOW_NAMES
    }
