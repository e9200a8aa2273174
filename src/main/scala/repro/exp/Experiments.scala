package repro.exp

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.SynthData
import repro.baselines.{ClosureKMeans, MiniBatchKMeans}
import repro.core._
import repro.knn.{BuildResult, GraphBuilder, NNDescent, Probe}

/** One result row in the shape of the paper's tables: method, scale, the
  * init/iteration/total time split of Table 2, final average distortion E,
  * and (for graph-supported methods) the top-1 recall of the graph used.
  */
final case class ExpRow(
    method: String,
    n: Int,
    d: Int,
    k: Int,
    initSec: Double,
    iterSec: Double,
    totalSec: Double,
    distortion: Double,
    recall: Double, // NaN = not applicable (paper prints "N.A.")
    iters: Int,
    distortionByIter: Vector[Double] = Vector.empty,
)

object ExpRow {

  private def ms2s(ms: Long): Double = ms / 1000.0

  /** The row of one fit. A graph build, when given, counts towards Init and
    * supplies the recall of its last probed round.
    */
  def from(
      method: String, n: Int, d: Int, k: Int, iters: Int,
      fit: FitResult, build: Option[BuildResult],
  ): ExpRow = {
    val iterSec = ms2s(fit.iterMs)
    val (initSec, totalSec, recall) = build match {
      case Some(b) =>
        val initSec = ms2s(b.buildMs + fit.initMs)
        (initSec, initSec + iterSec, b.roundRecalls.lastOption.getOrElse(Double.NaN))
      case None => (ms2s(fit.initMs), ms2s(fit.totalMs), Double.NaN)
    }
    ExpRow(method, n, d, k, initSec, iterSec, totalSec, fit.finalDistortion, recall, iters, fit.distortionByIter)
  }
}

/** Timed experiment runners reproducing the paper's evaluation section, and
  * one function per paper table or figure sweep. Each table runs at its fixed
  * parameters; only the scale (n, k, iterations, dataset, sweep points) is an
  * argument, and each `jobs/` main calls its table function directly.
  */
object Experiments {

  // Shared by every table: the data seed, graph degree κ and cluster size ξ.
  private val Seed = 42L
  private val Kappa = 20
  private val Xi = 50

  /** Named dataset generators for Table 1 / the figure sweeps. */
  def dataset(spark: SparkSession, name: String, n: Long, seed: Long = Seed): DataFrame = name match {
    case "sift"  => SynthData.siftLite(spark, n, nCenters = math.max(64, (n / 100).toInt), seed)
    case "vlad"  => SynthData.vladLite(spark, n, nCenters = math.max(64, (n / 50).toInt), seed)
    case "glove" => SynthData.gloveLite(spark, n, nCenters = math.max(64, (n / 66).toInt), seed)
    case "gist"  => SynthData.gistLite(spark, n, nCenters = math.max(64, (n / 40).toInt), seed)
    case other   => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** Runs `body` on the cached points of the named dataset (n points at the
    * tables' seed) and their dimension, then unpersists them.
    */
  private def onDataset[A](spark: SparkSession, name: String, n: Int)(body: (Dataset[Point], Int) => A): A = {
    val points = Points.cached(dataset(spark, name, n, Seed))
    try body(points, points.rdd.first().vec.length)
    finally points.unpersist()
  }

  /** GK-means, standard configuration: Alg. 3 graph + boost rule (Alg. 2). */
  def gkRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      kappa: Int, xi: Int, tau: Int, iters: Int, seed: Long,
      probe: Option[Probe],
      rule: Engine.Rule = Engine.BoostRule,
      label: String = "GK-means",
  ): (ExpRow, FitResult, BuildResult) = {
    val build = GraphBuilder.build(points, n, d, kappa, xi, tau, seed, probe)
    val fit = Clustering.gkMeans(points, n, k, d, build.vecs, build.graph.ids, kappa, iters, seed, rule)
    (ExpRow.from(label, n, d, k, iters, fit, Some(build)), fit, build)
  }

  /** KGraph+GK-means: same clustering, graph supplied by NN-Descent. */
  def kgraphGkRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      kappa: Int, nndIters: Int, rho: Double, iters: Int, seed: Long,
      probe: Option[Probe],
  ): ExpRow = {
    val build = NNDescent.build(points, n, d, kappa, nndIters, rho, seed, probe = probe)
    val fit = Clustering.gkMeans(points, n, k, d, build.vecs, build.graph.ids, kappa, iters, seed)
    ExpRow.from("KGraph+GK-means", n, d, k, iters, fit, Some(build))
  }

  def closureRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      iters: Int, seed: Long, m: Int = 3, bucketSize: Int = 50,
  ): (ExpRow, FitResult) = {
    val fit = ClosureKMeans.fit(points, n, k, d, iters, seed, m, bucketSize)
    (ExpRow.from("closure k-means", n, d, k, iters, fit, None), fit)
  }

  def lloydRun(points: Dataset[Point], n: Int, d: Int, k: Int, iters: Int, seed: Long): ExpRow =
    ExpRow.from("k-means", n, d, k, iters, Clustering.lloyd(points, n, k, d, iters, seed), None)

  def boostRun(points: Dataset[Point], n: Int, d: Int, k: Int, iters: Int, seed: Long): ExpRow =
    ExpRow.from("BKM", n, d, k, iters, Clustering.boost(points, n, k, d, iters, seed), None)

  def miniBatchRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      batches: Int, batchSize: Int, seed: Long, evalEvery: Int = 0,
  ): ExpRow = {
    val fit = MiniBatchKMeans.fit(points, n, k, d, batches, batchSize, seed, evalEvery)
    ExpRow.from("Mini-Batch", n, d, k, batches, fit, None)
  }

  /** The paper's "3 years for traditional k-means" estimate, reproduced: time
    * one full-scan assignment epoch at the target k and extrapolate to
    * `iters` iterations (+ the same epoch as seeding cost).
    */
  def estimateFullKMeansSec(points: Dataset[Point], n: Int, d: Int, k: Int, iters: Int, seed: Long): Double = {
    val st = Clustering.randomSeedState(points, n, k, d, seed)
    val t0 = System.nanoTime()
    Engine.epoch(points, new Array[Int](n), st, new AllClustersGen(k), Engine.NearestRule, recomputeState = false)
    val epochSec = (System.nanoTime() - t0) / 1e9
    epochSec * (iters + 1)
  }

  final case class DatasetRow(name: String, paperScale: String, n: Long, d: Int, dataType: String)

  /** Table 1 — overview of datasets (our scaled stand-ins). */
  def table1(spark: SparkSession): Seq[DatasetRow] = {
    def row(name: String, paperScale: String, df: DataFrame, dataType: String): DatasetRow = {
      val n = df.count()
      val d = df.selectExpr("size(vec) as d").head().getInt(0)
      DatasetRow(name, paperScale, n, d, dataType)
    }
    Seq(
      row("SIFT1M-lite", "1M x 128", dataset(spark, "sift", 100000), "SIFT (synthetic mixture)"),
      row("VLAD10M-lite", "10M x 512", dataset(spark, "vlad", 100000), "VLAD (synthetic mixture)"),
      row("Glove1M-lite", "1M x 100", dataset(spark, "glove", 100000), "GloVe (synthetic mixture)"),
      row("GIST1M-lite", "1M x 960", dataset(spark, "gist", 20000), "GIST (synthetic mixture)"),
    )
  }

  /** Table 2 — partitioning the VLAD stand-in into k clusters (the paper's
    * VLAD10M → 1M, kept at n/k = 10 with ξ = 50 and τ = 10; see DESIGN.md
    * for the scale mapping). Returns the method rows, a measured BKM
    * reference last, plus the extrapolated traditional-k-means cost (the
    * paper's "more than 3 years" estimate, same methodology).
    */
  def table2(spark: SparkSession, n: Int, k: Int, iters: Int): (Seq[ExpRow], Double) =
    onDataset(spark, "vlad", n) { (points, d) =>
      val probe = Some(Probe.sample(points, n, probes = 200, Seed))
      val kg = kgraphGkRun(points, n, d, k, Kappa, nndIters = 6, rho = 0.3, iters, Seed, probe)
      val (gk, _, _) = gkRun(points, n, d, k, Kappa, Xi, tau = 10, iters, Seed, probe)
      val (cl, _) = closureRun(points, n, d, k, iters, Seed, m = 3, bucketSize = 50)
      val bkm = boostRun(points, n, d, k, iters, Seed)
      val estimate = estimateFullKMeansSec(points, n, d, k, iters, Seed)
      (Seq(kg, gk, cl, bkm.copy(method = "BKM (ref)")), estimate)
    }

  /** Fig. 5-shaped quality run: distortion vs iteration/time for all methods
    * on one dataset at fixed k.
    */
  def quality(spark: SparkSession, datasetName: String, n: Int, k: Int, iters: Int): Seq[ExpRow] =
    onDataset(spark, datasetName, n) { (points, d) =>
      val probe = Some(Probe.sample(points, n, probes = 100, Seed))
      val ll = lloydRun(points, n, d, k, iters, Seed)
      val bk = boostRun(points, n, d, k, iters, Seed)
      val mb = miniBatchRun(points, n, d, k, batches = iters * 4, batchSize = 1000, Seed, evalEvery = 4)
      val (cl, _) = closureRun(points, n, d, k, iters, Seed)
      val (gk, _, _) = gkRun(points, n, d, k, Kappa, Xi, tau = 8, iters, Seed, probe)
      val kg = kgraphGkRun(points, n, d, k, Kappa, nndIters = 5, rho = 0.4, iters, Seed, probe)
      Seq(ll, bk, mb, cl, gk, kg)
    }

  /** Fig. 6/7-shaped scalability runs on the VLAD stand-in:
    * (a) k fixed, n varying; (b) n fixed, k varying.
    */
  def scalability(spark: SparkSession, ns: Seq[Int], fixedK: Int, ks: Seq[Int], fixedN: Int, iters: Int): Seq[ExpRow] = {
    def allMethods(n: Int, k: Int): Seq[ExpRow] = onDataset(spark, "vlad", n) { (points, d) =>
      val mb = miniBatchRun(points, n, d, k, batches = iters * 2, batchSize = 1000, Seed)
      val (cl, _) = closureRun(points, n, d, k, iters, Seed)
      val ll = lloydRun(points, n, d, k, iters, Seed)
      val bk = boostRun(points, n, d, k, iters, Seed)
      val (gk, _, _) = gkRun(points, n, d, k, Kappa, Xi, tau = 6, iters, Seed, None)
      Seq(mb, cl, ll, bk, gk)
    }
    ns.flatMap(n => allMethods(n, fixedK)) ++ ks.flatMap(k => allMethods(fixedN, k))
  }

  /** Fig. 4-shaped configuration test: distortion vs graph recall for
    * GK-means, GK-means⁻ (traditional rule) and KGraph+GK-means as graph
    * quality grows (τ / NN-Descent rounds).
    */
  def configTest(spark: SparkSession, n: Int, k: Int, taus: Seq[Int], iters: Int): Seq[ExpRow] =
    onDataset(spark, "sift", n) { (points, d) =>
      val probe = Some(Probe.sample(points, n, probes = 100, Seed))
      taus.flatMap { tau =>
        val (gk, _, _) = gkRun(points, n, d, k, Kappa, Xi, tau, iters, Seed, probe, label = s"GK-means(tau=$tau)")
        val (gkm, _, _) = gkRun(points, n, d, k, Kappa, Xi, tau, iters, Seed, probe,
          rule = Engine.NearestRule, label = s"GK-means-(tau=$tau)")
        val kg = kgraphGkRun(points, n, d, k, Kappa, nndIters = tau, rho = 0.4, iters, Seed, probe)
        Seq(gk, gkm, kg.copy(method = s"KGraph+GK(it=$tau)"))
      }
    }

  /** Aligned text table matching the paper's Table-2 column layout. */
  def fmtTable(rows: Seq[ExpRow]): String = {
    val header = f"${"Method"}%-18s ${"n"}%8s ${"d"}%5s ${"k"}%7s ${"Init(s)"}%9s ${"Iter(s)"}%9s ${"Total(s)"}%9s ${"E"}%12s ${"Recall"}%7s"
    val lines = rows.map { r =>
      val rec = if (r.recall.isNaN) "N.A." else f"${r.recall}%.2f"
      f"${r.method}%-18s ${r.n}%8d ${r.d}%5d ${r.k}%7d ${r.initSec}%9.1f ${r.iterSec}%9.1f ${r.totalSec}%9.1f ${r.distortion}%12.4f $rec%7s"
    }
    (header +: lines).mkString("\n")
  }

  def fmtTable1(rows: Seq[DatasetRow]): String = {
    val header = f"${"Dataset"}%-14s ${"paper scale"}%-11s ${"n"}%8s ${"dim"}%5s  type"
    (header +: rows.map(r => f"${r.name}%-14s ${r.paperScale}%-11s ${r.n}%8d ${r.d}%5d  ${r.dataType}")).mkString("\n")
  }
}
