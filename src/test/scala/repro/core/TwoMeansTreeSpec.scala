package repro.core

import repro.{SparkSpec, TestData}

/** Two-means tree (Alg. 1) over a Dataset: exact leaf counts, balance,
  * determinism, independence from partitioning, quality, input checks.
  */
class TwoMeansTreeSpec extends SparkSpec {

  private lazy val points = TestData.small // 3000 x 16
  private lazy val vecs = TestData.smallVecs
  private val n = 3000
  private val d = 16

  for (k <- Seq(2, 3, 7, 16, 64, 100, 150)) {
    test(s"cluster produces exactly k=$k non-empty dense labels") {
      val labels = TwoMeansTree.cluster(points, n, k, d, seed = k)
      assert(labels.length == n)
      assert(labels.min == 0 && labels.max == k - 1)
      assert(labels.distinct.length == k)
    }
  }

  for ((k, seed) <- Seq((64, 1), (150, 2))) {
    test(s"cluster sizes obey max <= 2 * min + 1 (k=$k)") {
      // Pop-largest with equal halves: every leaf is at least half (rounded
      // down) of a split cluster, and every split cluster is >= the final max.
      val sizes = TwoMeansTree.cluster(points, n, k, d, seed).groupBy(identity).map(_._2.length)
      assert(sizes.max <= 2 * sizes.min + 1, s"max=${sizes.max} min=${sizes.min}")
    }
  }

  test("k = 1 assigns everything to cluster 0") {
    val labels = TwoMeansTree.cluster(points, n, 1, d, seed = 3)
    assert(labels.forall(_ == 0))
  }

  test("deterministic given the same seed") {
    val a = TwoMeansTree.cluster(points, n, 20, d, seed = 4)
    val b = TwoMeansTree.cluster(points, n, 20, d, seed = 4)
    assert(a sameElements b)
  }

  test("beats random labels on distortion (k=40)") {
    val labels = TwoMeansTree.cluster(points, n, 40, d, seed = 5)
    val tree = TestData.localDistortion(vecs, labels, 40)
    val rand = TestData.localDistortion(vecs, TestData.randomLabels(n, 40, 6), 40)
    assert(tree < 0.8 * rand, s"tree=$tree rand=$rand")
  }

  test("rejects k outside [1, n]") {
    assertThrows[IllegalArgumentException](TwoMeansTree.cluster(points, n, 0, d, 1))
    assertThrows[IllegalArgumentException](TwoMeansTree.cluster(points, n, n + 1, d, 1))
  }

  test("tiny dataset, k near n") {
    val labels = TwoMeansTree.cluster(TestData.tiny, 600, 300, 8, seed = 7)
    assert(labels.distinct.length == 300)
  }

  test("cluster is the pop-largest tree on the id-ordered vectors") {
    assert(TwoMeansTree.cluster(points, n, 40, d, seed = 8) sameElements TwoMeansTree.twoMeansTree(vecs, 40, 8))
  }

  test("labels do not depend on how the points are partitioned") {
    val re = points.repartition(4).cache()
    try assert(TwoMeansTree.cluster(points, n, 50, d, seed = 9) sameElements TwoMeansTree.cluster(re, n, 50, d, seed = 9))
    finally re.unpersist()
  }

  test("rejects a ragged vector and a non-finite value") {
    val sp = spark
    import sp.implicits._
    val good = Seq.tabulate(20)(i => Point(i.toLong, Array(i.toFloat, 1f, -i.toFloat)))
    Seq(good.updated(7, Point(7, Array(7f, 1f))), good.updated(7, Point(7, Array(7f, Float.NaN, 1f)))).foreach { pts =>
      val e = intercept[IllegalArgumentException](TwoMeansTree.cluster(sp.createDataset(pts), 20, 4, 3, seed = 1))
      assert(e.getMessage.contains("point 7"), e.getMessage)
    }
  }
}
