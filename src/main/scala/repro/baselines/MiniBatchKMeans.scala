package repro.baselines

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics

/** Mini-Batch k-means baseline (Sculley, WWW'10) — the paper's fastest but
  * lowest-quality competitor (Figs. 5-7).
  *
  * Per batch: sample `batchSize` points, assign each to its nearest centre,
  * then apply the per-centre learning-rate update `c ← (1−η)c + ηx` with
  * `η = 1/v[c]`. The vectors are collected once, and each batch is
  * `batchSize` ids drawn on the driver, so the batches do not depend on how
  * the points are partitioned.
  *
  * The model is its centres. Every `distortionByIter` entry is the average
  * distortion (1/n)·Σ‖x − c(x)‖² of the current centres, c(x) being x's
  * nearest centre: one nearest assignment epoch, then
  * `Metrics.distortionDirect` against them. The `FitResult` carries the
  * nearest-centre labels of the final centres and, as `state`, those
  * centres as a `ClusterState.fromCentroids` (counts 0, each centre its
  * cluster's fallback centroid), so that
  * `distortionDirect(points, labels, state)` is the final E. Iter time
  * counts the batches and the final assignment; the distortion passes are
  * evaluation and stay out of it.
  */
object MiniBatchKMeans {

  def fit(
      points: Dataset[Point],
      n: Int,
      k: Int,
      d: Int,
      batches: Int,
      batchSize: Int,
      seed: Long,
      evalEvery: Int = 0, // 0 = evaluate distortion only at the end
  ): FitResult = {
    require(batches >= 1, s"need batches=$batches >= 1")
    require(batchSize >= 1, s"need batchSize=$batchSize >= 1")
    require(evalEvery >= 0, s"need evalEvery=$evalEvery >= 0")
    val t0 = System.nanoTime()
    val vecs = Points.collectVecs(points, n, d)
    // k sampled points as seed centres, updated in place batch by batch.
    val cents = Clustering.sampleIds(n, k, seed).map(id => vecs(id.toInt).map(_.toDouble))
    val counts = new Array[Long](k)
    val initMs = (System.nanoTime() - t0) / 1000000

    val dist = Vector.newBuilder[Double]
    var evalMs = 0L

    /** Each point's nearest centre in `model`; the epoch skips the re-sum. */
    def assign(model: ClusterState): Array[Int] =
      Engine.epoch(points, new Array[Int](n), model, new AllClustersGen(k), Engine.NearestRule, recomputeState = false).labels

    val t1 = System.nanoTime()
    var b = 0
    var evals = 0L
    while (b < batches) {
      Clustering.sampleIds(n, math.min(batchSize, n), seed + b).foreach { id =>
        val x = vecs(id.toInt)
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < k) {
          val dd = VecOps.sqDistFD(x, cents(c))
          if (dd < bestD) { bestD = dd; best = c }
          c += 1
        }
        evals += k
        counts(best) += 1
        val eta = 1.0 / counts(best)
        var i = 0
        while (i < d) { cents(best)(i) = (1.0 - eta) * cents(best)(i) + eta * x(i); i += 1 }
      }
      b += 1
      if (evalEvery > 0 && b % evalEvery == 0 && b < batches) {
        val te = System.nanoTime()
        val model = ClusterState.fromCentroids(cents)
        dist += Metrics.distortionDirect(points, assign(model), model)
        evalMs += (System.nanoTime() - te) / 1000000
      }
    }
    // Final labels by one full assignment, then the E of the final centres.
    val model = ClusterState.fromCentroids(cents)
    val labels = assign(model)
    val iterMs = (System.nanoTime() - t1) / 1000000 - evalMs
    dist += Metrics.distortionDirect(points, labels, model)
    FitResult(labels, model, k, initMs, iterMs, dist.result(), evals, labels.count(_ != 0).toLong)
  }
}
