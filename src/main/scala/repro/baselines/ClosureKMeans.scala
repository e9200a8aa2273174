package repro.baselines

import org.apache.spark.sql.Dataset
import repro.core._
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
    require(m >= 1 && bucketSize >= 1, s"need m=$m >= 1 and bucketSize=$bucketSize >= 1")
    val rng = new Random(seed)
    // m random unit vectors.
    val dirs = Array.fill(m) {
      val v = Array.fill(d)(rng.nextGaussian())
      val norm = math.sqrt(VecOps.normSqD(v))
      v.map(_ / norm)
    }
    val bcDirs = points.sparkSession.sparkContext.broadcast(dirs)
    // Per partition, its ids and their m projections each, row after row.
    val blocks =
      try {
        Points.pass(points, "baselines.ClosureKMeans.buildBuckets", n, d) { it =>
          val ids = Array.newBuilder[Long]
          val ps = Array.newBuilder[Double]
          it.foreach { p =>
            ids += p.id
            bcDirs.value.foreach(dir => ps += VecOps.dotFD(p.vec, dir))
          }
          (ids.result(), ps.result())
        }
      } finally bcDirs.destroy()
    val ids = blocks.flatMap(_._1)
    val projs = blocks.flatMap(_._2)

    val memberOf = Array.ofDim[Int](m, n)
    val buckets = new Array[Array[Array[Int]]](m)
    var pr = 0
    while (pr < m) {
      val order = Array.range(0, ids.length).sortBy(i => (projs(i * m + pr), ids(i))).map(ids(_).toInt)
      val nBuckets = math.max(1, n / bucketSize)
      val bs = Array.fill(nBuckets)(Array.newBuilder[Int])
      var pos = 0
      while (pos < n) {
        val b = math.min(nBuckets - 1, (pos.toLong * nBuckets / n).toInt)
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
  ): FitResult = {
    require(iters >= 0, s"need iters=$iters >= 0")
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
        new ClosureGen(bcM, bcB), Engine.NearestRule, initMs, init.distEvals)
    } finally { bcM.destroy(); bcB.destroy() }
  }
}
