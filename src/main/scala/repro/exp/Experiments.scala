package repro.exp

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.SynthData
import repro.baselines.{ClosureKMeans, MiniBatchKMeans}
import repro.core._
import repro.eval.Metrics
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

  /** The row of one fit. A graph build, when given, counts towards Init and
    * supplies the recall of its last probed round.
    */
  def from(
      method: String, n: Int, d: Int, k: Int, iters: Int,
      fit: FitResult, build: Option[BuildResult],
  ): ExpRow = {
    import Experiments.ms2s
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

/** Timed experiment runners reproducing the paper's evaluation section.
  * Every `jobs/` entrypoint goes through these, so a table row is
  * reproducible from one function call.
  */
object Experiments {

  def ms2s(ms: Long): Double = ms / 1000.0

  /** Named dataset generators for Table 1 / the figure sweeps. */
  def dataset(spark: SparkSession, name: String, n: Long, seed: Long = 42): DataFrame = name match {
    case "sift"  => SynthData.siftLite(spark, n, nCenters = math.max(64, (n / 100).toInt), seed)
    case "vlad"  => SynthData.vladLite(spark, n, nCenters = math.max(64, (n / 50).toInt), seed)
    case "glove" => SynthData.gloveLite(spark, n, nCenters = math.max(64, (n / 66).toInt), seed)
    case "gist"  => SynthData.gistLite(spark, n, nCenters = math.max(64, (n / 40).toInt), seed)
    case other   => throw new IllegalArgumentException(s"unknown dataset $other")
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
    val fit = Clustering.gkMeans(points, n, k, d, build.graph.ids, kappa, iters, seed, rule)
    (ExpRow.from(label, n, d, k, iters, fit, Some(build)), fit, build)
  }

  /** KGraph+GK-means: same clustering, graph supplied by NN-Descent. */
  def kgraphGkRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      kappa: Int, nndIters: Int, rho: Double, iters: Int, seed: Long,
      probe: Option[Probe],
  ): (ExpRow, FitResult, BuildResult) = {
    val build = NNDescent.build(points, n, d, kappa, nndIters, rho, seed, probe = probe)
    val fit = Clustering.gkMeans(points, n, k, d, build.graph.ids, kappa, iters, seed)
    (ExpRow.from("KGraph+GK-means", n, d, k, iters, fit, Some(build)), fit, build)
  }

  def closureRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      iters: Int, seed: Long, m: Int = 3, bucketSize: Int = 50,
  ): (ExpRow, FitResult) = {
    val fit = ClosureKMeans.fit(points, n, k, d, iters, seed, m, bucketSize)
    (ExpRow.from("closure k-means", n, d, k, iters, fit, None), fit)
  }

  def lloydRun(points: Dataset[Point], n: Int, d: Int, k: Int, iters: Int, seed: Long): (ExpRow, FitResult) = {
    val fit = Clustering.lloyd(points, n, k, d, iters, seed)
    (ExpRow.from("k-means", n, d, k, iters, fit, None), fit)
  }

  def boostRun(points: Dataset[Point], n: Int, d: Int, k: Int, iters: Int, seed: Long): (ExpRow, FitResult) = {
    val fit = Clustering.boost(points, n, k, d, iters, seed)
    (ExpRow.from("BKM", n, d, k, iters, fit, None), fit)
  }

  def miniBatchRun(
      points: Dataset[Point], n: Int, d: Int, k: Int,
      batches: Int, batchSize: Int, seed: Long, evalEvery: Int = 0,
  ): (ExpRow, FitResult) = {
    val fit = MiniBatchKMeans.fit(points, n, k, d, batches, batchSize, seed, evalEvery)
    (ExpRow.from("Mini-Batch", n, d, k, batches, fit, None), fit)
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

  /** Aligned text table matching the paper's Table-2 column layout. */
  def fmtTable(rows: Seq[ExpRow]): String = {
    val header = f"${"Method"}%-18s ${"n"}%8s ${"d"}%5s ${"k"}%7s ${"Init(s)"}%9s ${"Iter(s)"}%9s ${"Total(s)"}%9s ${"E"}%12s ${"Recall"}%7s"
    val lines = rows.map { r =>
      val rec = if (r.recall.isNaN) "N.A." else f"${r.recall}%.2f"
      f"${r.method}%-18s ${r.n}%8d ${r.d}%5d ${r.k}%7d ${r.initSec}%9.1f ${r.iterSec}%9.1f ${r.totalSec}%9.1f ${r.distortion}%12.4f $rec%7s"
    }
    (header +: lines).mkString("\n")
  }
}
