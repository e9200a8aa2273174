package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.knn.Probe

/** Parameters of the Table-2 reproduction (scaled-down VLAD10M → 1M clusters;
  * the paper's governing ratios are kept: n/k = 10, ξ = 50, τ = 10 — see
  * DESIGN.md substitutions for the scale mapping).
  */
final case class Table2Config(
    n: Int = 60000,
    k: Int = 6000,
    kappa: Int = 20,
    xi: Int = 50,
    tau: Int = 10,
    iters: Int = 20,
    nndIters: Int = 6,
    rho: Double = 0.3,
    probes: Int = 200,
    closureM: Int = 3,
    closureBucket: Int = 50,
    seed: Long = 42,
)

/** One reproduction entrypoint per paper table / figure-shaped sweep.
  * The `jobs/` mains delegate here so every number in EXPERIMENTS.md is
  * regenerable from a single call.
  */
object Tables {

  final case class DatasetRow(name: String, paperScale: String, n: Long, d: Int, dataType: String)

  /** Table 1 — overview of datasets (our scaled stand-ins). */
  def table1(spark: SparkSession): Seq[DatasetRow] = {
    def row(name: String, paperScale: String, df: org.apache.spark.sql.DataFrame, dataType: String): DatasetRow = {
      val n = df.count()
      val d = df.selectExpr("size(vec) as d").head().getInt(0)
      DatasetRow(name, paperScale, n, d, dataType)
    }
    Seq(
      row("SIFT1M-lite", "1M x 128", Experiments.dataset(spark, "sift", 100000), "SIFT (synthetic mixture)"),
      row("VLAD10M-lite", "10M x 512", Experiments.dataset(spark, "vlad", 100000), "VLAD (synthetic mixture)"),
      row("Glove1M-lite", "1M x 100", Experiments.dataset(spark, "glove", 100000), "GloVe (synthetic mixture)"),
      row("GIST1M-lite", "1M x 960", Experiments.dataset(spark, "gist", 20000), "GIST (synthetic mixture)"),
    )
  }

  def fmtTable1(rows: Seq[DatasetRow]): String = {
    val header = f"${"Dataset"}%-14s ${"paper scale"}%-11s ${"n"}%8s ${"dim"}%5s  type"
    (header +: rows.map(r => f"${r.name}%-14s ${r.paperScale}%-11s ${r.n}%8d ${r.d}%5d  ${r.dataType}")).mkString("\n")
  }

  /** Table 2 — partitioning the VLAD stand-in into n/10 clusters.
    * Returns the method rows, a measured BKM reference last, plus the
    * extrapolated traditional-k-means cost (the paper's "more than 3 years"
    * estimate, same methodology).
    */
  def table2(spark: SparkSession, cfg: Table2Config = Table2Config()): (Seq[ExpRow], Double) = {
    val df = Experiments.dataset(spark, "vlad", cfg.n, cfg.seed)
    val points = Points.cached(df)
    try {
      val d = 64
      val probe = Some(Probe.sample(points, cfg.n, cfg.probes, cfg.seed))
      val (kgRow, _, _) = Experiments.kgraphGkRun(
        points, cfg.n, d, cfg.k, cfg.kappa, cfg.nndIters, cfg.rho, cfg.iters, cfg.seed, probe)
      val (gkRow, _, _) = Experiments.gkRun(
        points, cfg.n, d, cfg.k, cfg.kappa, cfg.xi, cfg.tau, cfg.iters, cfg.seed, probe)
      val (clRow, _) = Experiments.closureRun(
        points, cfg.n, d, cfg.k, cfg.iters, cfg.seed, cfg.closureM, cfg.closureBucket)
      val (bkmRow, _) = Experiments.boostRun(points, cfg.n, d, cfg.k, cfg.iters, cfg.seed)
      val estimate = Experiments.estimateFullKMeansSec(points, cfg.n, d, cfg.k, cfg.iters, cfg.seed)
      (Seq(kgRow, gkRow, clRow, bkmRow.copy(method = "BKM (ref)")), estimate)
    } finally points.unpersist()
  }

  /** Fig. 5-shaped quality run: distortion vs iteration/time for all methods
    * on one dataset at fixed k.
    */
  def quality(
      spark: SparkSession,
      datasetName: String,
      n: Int,
      k: Int,
      iters: Int,
      seed: Long = 42,
      kappa: Int = 20,
      xi: Int = 50,
      tau: Int = 8,
  ): Seq[ExpRow] = {
    val df = Experiments.dataset(spark, datasetName, n, seed)
    val points = Points.cached(df)
    try {
      val d = points.head().vec.length
      val probe = Some(Probe.sample(points, n, 100, seed))
      val (ll, _) = Experiments.lloydRun(points, n, d, k, iters, seed)
      val (bk, _) = Experiments.boostRun(points, n, d, k, iters, seed)
      val (mb, _) = Experiments.miniBatchRun(points, n, d, k, batches = iters * 4, batchSize = 1000, seed, evalEvery = 4)
      val (cl, _) = Experiments.closureRun(points, n, d, k, iters, seed)
      val (gk, _, _) = Experiments.gkRun(points, n, d, k, kappa, xi, tau, iters, seed, probe)
      val (kg, _, _) = Experiments.kgraphGkRun(points, n, d, k, kappa, nndIters = 5, rho = 0.4, iters, seed, probe)
      Seq(ll, bk, mb, cl, gk, kg)
    } finally points.unpersist()
  }

  /** Fig. 6/7-shaped scalability runs on the VLAD stand-in:
    * (a) k fixed, n varying; (b) n fixed, k varying.
    */
  def scalability(
      spark: SparkSession,
      ns: Seq[Int],
      fixedK: Int,
      ks: Seq[Int],
      fixedN: Int,
      iters: Int,
      seed: Long = 42,
      kappa: Int = 20,
      xi: Int = 50,
      tau: Int = 6,
  ): Seq[ExpRow] = {
    def allMethods(n: Int, k: Int): Seq[ExpRow] = {
      val df = Experiments.dataset(spark, "vlad", n, seed)
      val points = Points.cached(df)
      try {
        val d = 64
        val (mb, _) = Experiments.miniBatchRun(points, n, d, k, batches = iters * 2, batchSize = 1000, seed)
        val (cl, _) = Experiments.closureRun(points, n, d, k, iters, seed)
        val (ll, _) = Experiments.lloydRun(points, n, d, k, iters, seed)
        val (bk, _) = Experiments.boostRun(points, n, d, k, iters, seed)
        val (gk, _, _) = Experiments.gkRun(points, n, d, k, kappa, xi, tau, iters, seed, None)
        Seq(mb, cl, ll, bk, gk)
      } finally points.unpersist()
    }
    ns.flatMap(n => allMethods(n, fixedK)) ++ ks.flatMap(k => allMethods(fixedN, k))
  }

  /** Fig. 4-shaped configuration test: distortion vs graph recall for
    * GK-means, GK-means⁻ (traditional rule) and KGraph+GK-means as graph
    * quality grows (τ / NN-Descent rounds).
    */
  def configTest(
      spark: SparkSession,
      n: Int,
      k: Int,
      taus: Seq[Int],
      iters: Int,
      seed: Long = 42,
      kappa: Int = 20,
      xi: Int = 50,
  ): Seq[ExpRow] = {
    val df = Experiments.dataset(spark, "sift", n, seed)
    val points = Points.cached(df)
    try {
      val d = 128
      val probe = Some(Probe.sample(points, n, 100, seed))
      taus.flatMap { tau =>
        val (gk, _, _) = Experiments.gkRun(points, n, d, k, kappa, xi, tau, iters, seed, probe,
          label = s"GK-means(tau=$tau)")
        val (gkm, _, _) = Experiments.gkRun(points, n, d, k, kappa, xi, tau, iters, seed, probe,
          rule = Engine.NearestRule, label = s"GK-means-(tau=$tau)")
        val (kg, _, _) = Experiments.kgraphGkRun(points, n, d, k, kappa, nndIters = tau, rho = 0.4, iters, seed, probe)
        Seq(gk, gkm, kg.copy(method = s"KGraph+GK(it=$tau)"))
      }
    } finally points.unpersist()
  }
}
