package repro.core

import org.apache.spark.sql.Dataset
import repro.eval.Metrics
import scala.util.Random

/** Outcome of a clustering run, with the timings the paper's tables report. */
final case class FitResult(
    labels: Array[Int],
    state: ClusterState,
    k: Int,
    initMs: Long,
    iterMs: Long,
    distortionByIter: Vector[Double],
    distEvals: Long,
    moves: Long,
) {
  def totalMs: Long = initMs + iterMs
  def finalDistortion: Double = distortionByIter.lastOption.getOrElse(Double.NaN)
}

/** Drivers for the k-means family studied in the paper:
  *
  *  - `lloyd` — traditional k-means (full scan, nearest centroid)
  *  - `boost` — boost k-means [16] (full scan, ΔI rule)
  *  - `gkMeans` — the paper's GK-means (Alg. 2): 2M-tree init, then
  *    graph-neighbour candidates with the ΔI rule (`BoostRule`), or the
  *    nearest rule for the paper's "GK-means⁻" ablation.
  */
object Clustering {

  /** k distinct random sample ids (driver-side; ids are dense in [0,n)). */
  def sampleIds(n: Int, k: Int, seed: Long): Array[Long] = {
    require(k <= n, s"k=$k > n=$n")
    val rng = new Random(seed)
    val picked = new java.util.LinkedHashSet[Long]()
    while (picked.size < k) picked.add(rng.nextInt(n).toLong)
    import scala.jdk.CollectionConverters._
    picked.iterator().asScala.toArray
  }

  /** Random-seed state: k sampled points become fallback centroids. */
  def randomSeedState(points: Dataset[Point], n: Int, k: Int, d: Int, seed: Long): ClusterState = {
    val ids = sampleIds(n, k, seed)
    val vecs = Points.fetchVecs(points, ids.toSeq)
    ClusterState.fromCentroids(ids.map(id => vecs(id).map(_.toDouble)))
  }

  /** Traditional k-means: random seeds, full-scan nearest assignment. */
  def lloyd(points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long, track: Boolean = true): FitResult =
    fullScan(points, n, k, d, iters, seed, Engine.NearestRule, track)

  /** Boost k-means [16]: random seeds + nearest init, then ΔI epochs. */
  def boost(points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long, track: Boolean = true): FitResult =
    fullScan(points, n, k, d, iters, seed, Engine.BoostRule, track)

  /** Random seeds and one nearest assignment pass against them, then `rule`
    * epochs over all k clusters.
    */
  private def fullScan(
      points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long,
      rule: Engine.Rule, track: Boolean,
  ): FitResult = {
    val t0 = System.nanoTime()
    val seedState = randomSeedState(points, n, k, d, seed)
    val init = Engine.epoch(points, new Array[Int](n), seedState, new AllClustersGen(k), Engine.NearestRule)
    val initMs = (System.nanoTime() - t0) / 1000000
    iterate(points, n, k, init.labels, init.state, iters, new AllClustersGen(k), rule, track, initMs, init.distEvals)
  }

  /** GK-means (paper Alg. 2): 2M-tree initial clusters, then epochs where
    * each sample only visits the clusters its top-κ graph neighbours live in.
    * `rule = NearestRule` gives the paper's GK-means⁻ ablation.
    */
  def gkMeans(
      points: Dataset[Point],
      n: Int,
      k: Int,
      d: Int,
      graph: Array[Array[Int]],
      kappa: Int,
      iters: Int,
      seed: Long,
      rule: Engine.Rule = Engine.BoostRule,
      track: Boolean = true,
      initLabels: Option[Array[Int]] = None,
  ): FitResult = {
    initLabels.foreach { l =>
      require(l.length == n && l.forall(x => x >= 0 && x < k),
        s"initLabels must hold n=$n labels, each in [0, k=$k) (got ${l.length} labels)")
    }
    val sc = points.sparkSession.sparkContext
    val t0 = System.nanoTime()
    val labels0 = initLabels.getOrElse(TwoMeansTree.cluster(points, n, k, d, seed))
    val state0 = ClusterState.fromLabels(points, labels0, k, d)
    val initMs = (System.nanoTime() - t0) / 1000000
    val bcG = sc.broadcast(graph)
    try iterate(points, n, k, labels0, state0, iters, new GraphNbrGen(bcG, kappa), rule, track, initMs, 0L)
    finally bcG.destroy()
  }

  /** Shared epoch loop with optional distortion tracking. */
  private[repro] def iterate(
      points: Dataset[Point],
      n: Int,
      k: Int,
      labels0: Array[Int],
      state0: ClusterState,
      iters: Int,
      cand: CandidateGen,
      rule: Engine.Rule,
      track: Boolean,
      initMs: Long,
      initEvals: Long,
  ): FitResult = {
    val sumSq = if (track) Metrics.sumSqNorm(points) else 0.0
    var labels = labels0
    var state = state0
    var evals = initEvals
    var moves = 0L
    val dist = Vector.newBuilder[Double]
    if (track) dist += state.distortion(sumSq, n)
    val t0 = System.nanoTime()
    var t = 0
    var converged = false
    while (t < iters && !converged) {
      val r = Engine.epoch(points, labels, state, cand, rule)
      labels = r.labels
      state = r.state
      evals += r.distEvals
      moves += r.moved
      if (track) dist += state.distortion(sumSq, n)
      converged = r.moved == 0
      t += 1
    }
    val iterMs = (System.nanoTime() - t0) / 1000000
    FitResult(labels, state, k, initMs, iterMs, dist.result(), evals, moves)
  }
}
