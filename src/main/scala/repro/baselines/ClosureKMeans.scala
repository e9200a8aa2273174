package repro.baselines

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics
import scala.util.Random

/** Closure k-means baseline (Wang et al., CVPR'12 "fast approximate k-means
  * via cluster closures") — the paper's strongest competitor in Table 2.
  *
  * Idea: only "active points" on cluster boundaries are compared, and only
  * against clusters whose *closure* (union of neighbourhoods of members)
  * contains them — equivalently, each point is compared to the clusters of
  * its neighbourhood mates. The original uses an ensemble of random-
  * projection trees for neighbourhoods; an RP-tree leaf is an equal-size
  * bucket of projection-sorted points, so we build `m` such bucketings from
  * `m` random projections directly (see DESIGN.md substitutions table).
  *
  * Iterations are Lloyd-style epochs restricted to closure candidates
  * (`ClosureGen` + `NearestRule`), with exact centroid re-aggregation.
  */
object ClosureKMeans {

  /** Build `m` equal-size neighbourhood bucketings from random projections.
    * Returns (memberOf, buckets): memberOf(p)(id) = bucket index, and
    * buckets(p)(b) = member ids.
    */
  def buildBuckets(
      points: Dataset[Point],
      n: Int,
      d: Int,
      m: Int,
      bucketSize: Int,
      seed: Long,
  ): (Array[Array[Int]], Array[Array[Array[Int]]]) = {
    val sp = points.sparkSession
    import sp.implicits._
    val rng = new Random(seed)
    // m random unit vectors.
    val dirs = Array.fill(m) {
      val v = Array.fill(d)(rng.nextGaussian())
      val norm = math.sqrt(VecOps.normSqD(v))
      v.map(_ / norm)
    }
    val bcDirs = sp.sparkContext.broadcast(dirs)
    val projs =
      try {
        points.map { p =>
          val ds = bcDirs.value.map(dir => VecOps.dotFD(p.vec, dir))
          (p.id, ds)
        }.collect()
      } finally bcDirs.destroy()

    val memberOf = Array.ofDim[Int](m, n)
    val buckets = new Array[Array[Array[Int]]](m)
    var pr = 0
    while (pr < m) {
      val order = projs.sortBy(x => (x._2(pr), x._1)).map(_._1.toInt)
      val nBuckets = math.max(1, n / bucketSize)
      val bs = Array.fill(nBuckets)(Array.newBuilder[Int])
      var pos = 0
      while (pos < n) {
        val b = math.min(nBuckets - 1, pos * nBuckets / n)
        bs(b) += order(pos)
        memberOf(pr)(order(pos)) = b
        pos += 1
      }
      buckets(pr) = bs.map(_.result())
      pr += 1
    }
    (memberOf, buckets)
  }

  def fit(
      points: Dataset[Point],
      n: Int,
      k: Int,
      d: Int,
      iters: Int,
      seed: Long,
      m: Int = 3,
      bucketSize: Int = 50,
      track: Boolean = true,
  ): FitResult = {
    val sc = points.sparkSession.sparkContext
    val t0 = System.nanoTime()
    val (memberOf, buckets) = buildBuckets(points, n, d, m, bucketSize, seed)
    // Seeding stays closure-restricted, like the original algorithm: k random
    // points become seeds and every sample is assigned to the nearest seed
    // found inside its neighbourhoods (never a full scan over all k).
    val seedIds = Clustering.sampleIds(n, k, seed ^ 0xC105)
    val seedVecs = Points.fetchVecs(points, seedIds.toSeq)
    val seedState = ClusterState.fromCentroids(seedIds.map(id => seedVecs(id).map(_.toDouble)))
    val seedOf = Array.fill(n)(-1)
    seedIds.zipWithIndex.foreach { case (id, c) => seedOf(id.toInt) = c }
    val bcM = sc.broadcast(memberOf)
    val bcB = sc.broadcast(buckets)
    try {
      val bcS = sc.broadcast(seedOf)
      val init =
        try Engine.epoch(points, Array.tabulate(n)(i => i % k), seedState,
          new SeedClosureGen(bcM, bcB, bcS, k), Engine.NearestRule)
        finally bcS.destroy()
      val initMs = (System.nanoTime() - t0) / 1000000
      Clustering.iterate(
        points, n, k, init.labels, init.state, iters,
        new ClosureGen(bcM, bcB), Engine.NearestRule, track, initMs, init.distEvals)
    } finally { bcM.destroy(); bcB.destroy() }
  }
}
