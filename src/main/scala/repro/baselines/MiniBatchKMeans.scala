package repro.baselines

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics

/** Mini-Batch k-means baseline (Sculley, WWW'10) — the paper's fastest but
  * lowest-quality competitor (Figs. 5-7).
  *
  * Per batch: sample `batchSize` points, assign each to its nearest centre,
  * then apply the per-centre learning-rate update `c ← (1−η)c + ηx` with
  * `η = 1/v[c]`. The batch is sampled distributed and collected (batches are
  * tiny by design); the final full assignment that produces labels/state for
  * evaluation runs as a normal distributed epoch.
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
    val t0 = System.nanoTime()
    // The seed state's fallback centroids, updated in place batch by batch.
    val cents = Clustering.randomSeedState(points, n, k, d, seed).comp
    val counts = new Array[Long](k)
    val initMs = (System.nanoTime() - t0) / 1000000

    val sumSq = Metrics.sumSqNorm(points)
    val dist = Vector.newBuilder[Double]
    var evalMs = 0L

    /** Full nearest assignment of every point to the current centres. */
    def assign(): Engine.EpochResult =
      Engine.epoch(points, new Array[Int](n), ClusterState.fromCentroids(cents), new AllClustersGen(k), Engine.NearestRule)

    val t1 = System.nanoTime()
    val fraction = math.min(1.0, batchSize.toDouble / n)
    var b = 0
    var evals = 0L
    while (b < batches) {
      val batch = points.sample(withReplacement = false, fraction, seed + b).collect()
      batch.foreach { p =>
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < k) {
          val dd = VecOps.sqDistFD(p.vec, cents(c))
          if (dd < bestD) { bestD = dd; best = c }
          c += 1
        }
        evals += k
        counts(best) += 1
        val eta = 1.0 / counts(best)
        var i = 0
        while (i < d) { cents(best)(i) = (1.0 - eta) * cents(best)(i) + eta * p.vec(i); i += 1 }
      }
      b += 1
      if (evalEvery > 0 && b % evalEvery == 0 && b < batches) {
        val te = System.nanoTime()
        dist += assign().state.distortion(sumSq, n)
        evalMs += (System.nanoTime() - te) / 1000000
      }
    }
    // Final labels/state via one full assignment (evaluation, like the paper
    // measuring distortion of the mini-batch model on the full set).
    val fin = assign()
    dist += fin.state.distortion(sumSq, n)
    val iterMs = (System.nanoTime() - t1) / 1000000 - evalMs
    FitResult(fin.labels, fin.state, k, initMs, iterMs, dist.result(), evals, fin.moved)
  }
}
