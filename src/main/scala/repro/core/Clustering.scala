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
    require(k >= 1 && k <= n, s"need 1 <= k=$k <= n=$n")
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
  def lloyd(points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long): FitResult =
    fullScan(points, n, k, d, iters, seed, Engine.NearestRule)

  /** Boost k-means [16]: random seeds + nearest init, then ΔI epochs. */
  def boost(points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long): FitResult =
    fullScan(points, n, k, d, iters, seed, Engine.BoostRule)

  /** Random seeds and one nearest assignment pass against them, then `rule`
    * epochs over all k clusters.
    */
  private def fullScan(
      points: Dataset[Point], n: Int, k: Int, d: Int, iters: Int, seed: Long, rule: Engine.Rule,
  ): FitResult = {
    require(iters >= 0, s"need iters=$iters >= 0")
    val t0 = System.nanoTime()
    val seedState = randomSeedState(points, n, k, d, seed)
    val init = Engine.epoch(points, new Array[Int](n), seedState, new AllClustersGen(k), Engine.NearestRule)
    val initMs = (System.nanoTime() - t0) / 1000000
    iterate(points, n, k, init.labels, init.state, iters, new AllClustersGen(k), rule, initMs, init.distEvals)
  }

  /** GK-means (paper Alg. 2): 2M-tree initial clusters, then epochs where
    * each sample only visits the clusters its top-κ graph neighbours live in.
    * `rule = NearestRule` gives the paper's GK-means⁻ ablation. `vecs` are
    * the points' vectors in id order, as `Points.collectVecs` returns them
    * and a graph build keeps them (`BuildResult.vecs`); the init tree runs on
    * them. `graph` has one row per point, of at least κ neighbour ids in
    * `[0, n)`.
    */
  def gkMeans(
      points: Dataset[Point],
      n: Int,
      k: Int,
      d: Int,
      vecs: Array[Array[Float]],
      graph: Array[Array[Int]],
      kappa: Int,
      iters: Int,
      seed: Long,
      rule: Engine.Rule = Engine.BoostRule,
  ): FitResult = {
    require(k >= 1 && k <= n, s"need 1 <= k=$k <= n=$n")
    require(kappa >= 1 && kappa < n, s"need 1 <= kappa=$kappa < n=$n")
    require(iters >= 0, s"need iters=$iters >= 0")
    require(vecs.length == n && vecs.forall(_.length == d), s"vecs must hold n=$n vectors of d=$d values")
    require(graph.length == n, s"graph has ${graph.length} rows, expected n=$n")
    graph.indices.foreach { i =>
      require(graph(i).length >= kappa, s"graph row $i has ${graph(i).length} neighbours, need kappa=$kappa")
      require(graph(i).forall(j => j >= 0 && j < n), s"graph row $i has a neighbour id outside [0, $n)")
    }
    val sc = points.sparkSession.sparkContext
    val t0 = System.nanoTime()
    val labels0 = TwoMeansTree.twoMeansTree(vecs, k, seed)
    val state0 = ClusterState.fromLabels(points, labels0, k, d)
    val initMs = (System.nanoTime() - t0) / 1000000
    val bcG = sc.broadcast(graph)
    try iterate(points, n, k, labels0, state0, iters, new GraphNbrGen(bcG, kappa), rule, initMs, 0L)
    finally bcG.destroy()
  }

  /** Shared epoch loop; records the distortion after the init and after
    * every epoch.
    */
  private[repro] def iterate(
      points: Dataset[Point],
      n: Int,
      k: Int,
      labels0: Array[Int],
      state0: ClusterState,
      iters: Int,
      cand: CandidateGen,
      rule: Engine.Rule,
      initMs: Long,
      initEvals: Long,
  ): FitResult = {
    val sumSq = Metrics.sumSqNorm(points)
    var labels = labels0
    var state = state0
    var evals = initEvals
    var moves = 0L
    val dist = Vector.newBuilder[Double]
    dist += state.distortion(sumSq, n)
    val t0 = System.nanoTime()
    var t = 0
    var converged = false
    while (t < iters && !converged) {
      val r = Engine.epoch(points, labels, state, cand, rule)
      labels = r.labels
      state = r.state
      evals += r.distEvals
      moves += r.moved
      dist += state.distortion(sumSq, n)
      converged = r.moved == 0
      t += 1
    }
    val iterMs = (System.nanoTime() - t0) / 1000000
    FitResult(labels, state, k, initMs, iterMs, dist.result(), evals, moves)
  }
}
