package repro.baselines

import repro.{SparkSpec, SynthData, TestData}
import repro.core.{Clustering, Engine, AllClustersGen, Points, VecOps}
import repro.eval.Metrics

/** Mini-Batch and closure k-means baselines. */
class BaselinesSpec extends SparkSpec {

  private lazy val points = TestData.small
  private val n = 3000
  private val d = 16

  // ---------------------------------------------------------------- MiniBatch

  test("mini-batch improves on the random-seed model") {
    val seedState = Clustering.randomSeedState(points, n, 20, d, 1)
    val seedAssign = Engine.epoch(points, new Array[Int](n), seedState, new AllClustersGen(20), Engine.NearestRule)
    val sumSq = Metrics.sumSqNorm(points)
    val seedDist = seedAssign.state.distortion(sumSq, n)
    val fit = MiniBatchKMeans.fit(points, n, 20, d, batches = 30, batchSize = 300, seed = 1)
    assert(fit.finalDistortion < seedDist, s"mb=${fit.finalDistortion} seed=$seedDist")
  }

  test("mini-batch rejects batches and batchSize below 1 and evalEvery below 0, naming them") {
    Seq(
      "batches=0" -> (() => MiniBatchKMeans.fit(points, n, 5, d, batches = 0, batchSize = 100, seed = 1)),
      "batchSize=0" -> (() => MiniBatchKMeans.fit(points, n, 5, d, batches = 2, batchSize = 0, seed = 1)),
      "evalEvery=-1" -> (() => MiniBatchKMeans.fit(points, n, 5, d, batches = 2, batchSize = 100, seed = 1, evalEvery = -1)),
    ).foreach { case (name, fit) =>
      val e = intercept[IllegalArgumentException](fit())
      assert(e.getMessage.contains(name), e.getMessage)
    }
  }

  test("mini-batch produces valid labels and k centroids") {
    val fit = MiniBatchKMeans.fit(points, n, 15, d, batches = 10, batchSize = 200, seed = 2)
    assert(fit.labels.forall(l => l >= 0 && l < 15))
    assert(fit.state.k == 15)
  }

  test("mini-batch records an evaluation trajectory when asked") {
    val fit = MiniBatchKMeans.fit(points, n, 10, d, batches = 12, batchSize = 100, seed = 3, evalEvery = 4)
    assert(fit.distortionByIter.length >= 3)
  }

  test("mini-batch reports the distortion of its own centres") {
    val fit = MiniBatchKMeans.fit(points, n, 12, d, batches = 8, batchSize = 200, seed = 6, evalEvery = 3)
    val vecs = TestData.smallVecs
    val cents = (0 until 12).map(fit.state.centroid)
    val want = vecs.map(x => cents.map(VecOps.sqDistFD(x, _)).min).sum / n
    assert(math.abs(fit.finalDistortion - want) <= 1e-9 * want, s"E=${fit.finalDistortion} want=$want")
    assert(Metrics.distortionDirect(points, fit.labels, fit.state) == fit.finalDistortion)
    assert(fit.distortionByIter.length == 3)
  }

  test("mini-batch fits the same on 1 and 4 partitions") {
    val (one, four) = (points.repartition(1).cache(), points.repartition(4).cache())
    try {
      val fits = Seq(one, four).map(MiniBatchKMeans.fit(_, n, 20, d, batches = 6, batchSize = 300, seed = 7, evalEvery = 2))
      assert(fits(0).labels sameElements fits(1).labels)
      // E sums per-partition partial sums, so only its last bits may differ.
      assert(fits(0).distortionByIter.length == 3)
      fits(0).distortionByIter.zip(fits(1).distortionByIter).foreach { case (a, b) =>
        assert(math.abs(a - b) <= 1e-12 * a, s"$a vs $b")
      }
    } finally { one.unpersist(); four.unpersist() }
  }

  test("mini-batch quality trails full k-means at large k (the paper's quality gap)") {
    // the paper's regime: k large relative to what the mini-batches can cover
    val mb = MiniBatchKMeans.fit(points, n, 150, d, batches = 15, batchSize = 200, seed = 4)
    val bk = Clustering.boost(points, n, 150, d, iters = 10, seed = 4)
    assert(bk.finalDistortion <= mb.finalDistortion * 1.02,
      s"bkm=${bk.finalDistortion} mb=${mb.finalDistortion}")
  }

  // ----------------------------------------------------------------- Closure

  test("closure buckets are equal-size partitions of the ids") {
    val (memberOf, buckets) = ClosureKMeans.buildBuckets(points, n, d, m = 3, bucketSize = 40, seed = 5)
    assert(memberOf.length == 3 && buckets.length == 3)
    buckets.foreach { bs =>
      assert(bs.map(_.length).sum == n)
      assert(bs.forall(b => b.length >= 20 && b.length <= 80), s"sizes=${bs.map(_.length).toSeq}")
    }
  }

  test("closure buckets stay equal-size once pos * nBuckets passes Int.MaxValue (n = 50,000, bucketSize = 1)") {
    val big = Points.cached(SynthData.clusteredVectors(spark, 50000, 2, 5, seed = 104))
    try {
      val (memberOf, buckets) = ClosureKMeans.buildBuckets(big, 50000, 2, m = 1, bucketSize = 1, seed = 5)
      assert(buckets(0).length == 50000 && buckets(0).forall(_.length == 1))
      assert(buckets(0).map(_(0)).sorted sameElements Array.range(0, 50000))
      assert(memberOf(0).indices.forall(id => buckets(0)(memberOf(0)(id))(0) == id))
    } finally big.unpersist()
  }

  test("closure buckets reject m = 0 and bucketSize = 0, naming them") {
    val m0 = intercept[IllegalArgumentException](ClosureKMeans.buildBuckets(points, n, d, m = 0, bucketSize = 40, seed = 5))
    assert(m0.getMessage.contains("m=0"), m0.getMessage)
    val b0 = intercept[IllegalArgumentException](ClosureKMeans.buildBuckets(points, n, d, m = 3, bucketSize = 0, seed = 5))
    assert(b0.getMessage.contains("bucketSize=0"), b0.getMessage)
  }

  test("closure memberOf is consistent with bucket membership") {
    val (memberOf, buckets) = ClosureKMeans.buildBuckets(points, n, d, m = 2, bucketSize = 50, seed = 6)
    (0 until 2).foreach { pr =>
      buckets(pr).zipWithIndex.foreach { case (members, b) =>
        members.foreach(id => assert(memberOf(pr)(id) == b))
      }
    }
  }

  test("closure buckets group projection-close points (neighbourhood property)") {
    val (_, buckets) = ClosureKMeans.buildBuckets(TestData.tiny, 600, 8, m = 1, bucketSize = 30, seed = 7)
    // each bucket's members must be contiguous under some projection — at
    // minimum, bucket-mates are far more likely to share a gt component than
    // random pairs on clustered data
    val gt = TestData.tinyGt
    val coRate = buckets(0).map { b =>
      val same = (for (i <- b; j <- b if i < j) yield if (gt(i) == gt(j)) 1 else 0).sum.toDouble
      val pairs = b.length * (b.length - 1) / 2
      same / pairs
    }.sum / buckets(0).length
    assert(coRate > 1.5 / 12, s"co-membership rate $coRate not above random")
  }

  test("closure k-means improves on its seeding") {
    val fit = ClosureKMeans.fit(points, n, 40, d, iters = 8, seed = 8, bucketSize = 40)
    assert(fit.finalDistortion < fit.distortionByIter.head)
  }

  test("closure k-means rejects iters < 0, naming iters") {
    val e = intercept[IllegalArgumentException](ClosureKMeans.fit(points, n, 10, d, iters = -1, seed = 1))
    assert(e.getMessage.contains("iters=-1"), e.getMessage)
  }

  test("closure k-means with a wrong d fails, naming a point and both lengths") {
    Seq(d / 2, 2 * d).foreach { bad =>
      val e = intercept[org.apache.spark.SparkException](ClosureKMeans.fit(points, n, 10, bad, iters = 1, seed = 1))
      assert(e.getMessage.matches(s"(?s).*point \\d+ has $d values, expected d=$bad.*"), e.getMessage)
    }
  }

  test("closure k-means labels are valid") {
    val fit = ClosureKMeans.fit(points, n, 25, d, iters = 4, seed = 9)
    assert(fit.labels.forall(l => l >= 0 && l < 25))
  }

  test("closure k-means beats mini-batch on quality (paper ordering)") {
    val cl = ClosureKMeans.fit(points, n, 30, d, iters = 10, seed = 10)
    val mb = MiniBatchKMeans.fit(points, n, 30, d, batches = 20, batchSize = 300, seed = 10)
    assert(cl.finalDistortion <= mb.finalDistortion * 1.05,
      s"cl=${cl.finalDistortion} mb=${mb.finalDistortion}")
  }

  test("closure candidate evaluations stay bounded by m * bucketSize-ish per point") {
    val fit = ClosureKMeans.fit(points, n, 100, d, iters = 3, seed = 11, m = 2, bucketSize = 30)
    // init full assignment is n*k; per-iteration adds at most n * (2*60)
    val bound = n.toLong * 100 + 3L * n * 2 * 60 + n
    assert(fit.distEvals <= bound, s"evals=${fit.distEvals} bound=$bound")
  }
}
