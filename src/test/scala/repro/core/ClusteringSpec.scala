package repro.core

import repro.{SparkSpec, TestData}
import repro.baselines.MiniBatchKMeans
import repro.eval.Purity
import repro.knn.KnnGraph

/** Lloyd / BKM / GK-means drivers: convergence, quality ordering claims from
  * the paper, and the k-independence of GK-means' per-iteration cost.
  */
class ClusteringSpec extends SparkSpec {

  private lazy val points = TestData.small
  private lazy val vecs = TestData.smallVecs
  private val n = 3000
  private val d = 16

  test("sampleIds returns k distinct ids in range") {
    val ids = Clustering.sampleIds(100, 30, 1)
    assert(ids.length == 30 && ids.distinct.length == 30)
    assert(ids.forall(i => i >= 0 && i < 100))
  }

  test("sampleIds with k == n is a permutation") {
    val ids = Clustering.sampleIds(20, 20, 2)
    assert(ids.sorted sameElements Array.tabulate(20)(_.toLong))
  }

  test("sampleIds rejects k = 0, naming k and n") {
    val e = intercept[IllegalArgumentException](Clustering.sampleIds(20, 0, 1))
    assert(e.getMessage.contains("k=0") && e.getMessage.contains("n=20"), e.getMessage)
  }

  test("gkMeans rejects kappa below 1, naming kappa") {
    val g = KnnGraph.random(n, 4, 1).ids
    Seq(-1, 0).foreach { kappa =>
      val e = intercept[IllegalArgumentException](Clustering.gkMeans(points, n, 10, d, vecs, g, kappa, iters = 2, seed = 1))
      assert(e.getMessage.contains(s"kappa=$kappa"), e.getMessage)
    }
  }

  test("gkMeans rejects kappa = n, naming kappa and n") {
    val g = KnnGraph.random(200, 4, 1).ids
    val e = intercept[IllegalArgumentException](Clustering.gkMeans(TestData.d4, 200, 10, 4, TestData.d4Vecs, g, 200, iters = 2, seed = 1))
    assert(e.getMessage.contains("kappa=200") && e.getMessage.contains("n=200"), e.getMessage)
  }

  test("lloyd, boost and gkMeans reject iters < 0, naming iters") {
    val g = KnnGraph.random(n, 4, 1).ids
    Seq[() => FitResult](
      () => Clustering.lloyd(points, n, 10, d, iters = -1, seed = 1),
      () => Clustering.boost(points, n, 10, d, iters = -1, seed = 1),
      () => Clustering.gkMeans(points, n, 10, d, vecs, g, 4, iters = -1, seed = 1),
    ).foreach { fit =>
      val e = intercept[IllegalArgumentException](fit())
      assert(e.getMessage.contains("iters=-1"), e.getMessage)
    }
  }

  test("gkMeans rejects vectors that do not match n and d") {
    val g = KnnGraph.random(n, 4, 1).ids
    Seq(vecs.init, vecs.map(_.take(d - 1))).foreach { bad =>
      val e = intercept[IllegalArgumentException](Clustering.gkMeans(points, n, 10, d, bad, g, 4, iters = 1, seed = 1))
      assert(e.getMessage.contains(s"n=$n") && e.getMessage.contains(s"d=$d"), e.getMessage)
    }
  }

  test("lloyd with n - 1 fails in its first epoch, naming the point with no label") {
    val e = intercept[org.apache.spark.SparkException](Clustering.lloyd(points, n - 1, 10, d, iters = 1, seed = 1))
    assert(e.getMessage.contains(s"point ${n - 1} is outside [0, n=${n - 1})"), e.getMessage)
  }

  test("lloyd with n + 1 fails rather than dividing E by n + 1") {
    val e = intercept[IllegalArgumentException](Clustering.lloyd(points, n + 1, 10, d, iters = 1, seed = 1))
    assert(e.getMessage.contains(s"saw $n points, but there are n=${n + 1} labels"), e.getMessage)
  }

  test("randomSeedState holds k fallback centroids from the data") {
    val st = Clustering.randomSeedState(points, n, 12, d, 3)
    assert(st.k == 12 && st.cnt.forall(_ == 0))
    // every centroid must be an actual data vector
    val asSet = vecs.map(_.toSeq).toSet
    st.comp.foreach(c => assert(asSet.contains(c.map(_.toFloat).toSeq)))
  }

  test("lloyd distortion trajectory is non-increasing") {
    val fit = Clustering.lloyd(points, n, 20, d, iters = 6, seed = 4)
    val tr = fit.distortionByIter
    assert(tr.nonEmpty)
    tr.sliding(2).foreach { case Vector(a, b) => assert(b <= a + 1e-9 * (1 + a)); case _ => }
  }

  test("lloyd recovers well-separated components (high purity)") {
    val fit = Clustering.lloyd(TestData.tiny, 600, 12, 8, iters = 12, seed = 5)
    val p = Purity(TestData.tinyDf.select("id", "gt"), fit.labels, 600)
    assert(p > 0.75, s"purity=$p")
  }

  test("boost k-means converges to lower distortion than Lloyd (paper claim)") {
    val ll = Clustering.lloyd(points, n, 30, d, iters = 10, seed = 6)
    val bk = Clustering.boost(points, n, 30, d, iters = 10, seed = 6)
    assert(bk.finalDistortion <= ll.finalDistortion * 1.05,
      s"bkm=${bk.finalDistortion} lloyd=${ll.finalDistortion}")
  }

  test("boost distortion trajectory trends downward") {
    val fit = Clustering.boost(points, n, 25, d, iters = 6, seed = 7)
    assert(fit.finalDistortion < fit.distortionByIter.head)
  }

  test("gkMeans with the exact graph approaches BKM quality (paper Fig. 4 claim)") {
    val g = KnnGraph.bruteForce(vecs, 10)
    val gk = Clustering.gkMeans(points, n, 50, d, vecs, g.ids, 10, iters = 10, seed = 8)
    val bk = Clustering.boost(points, n, 50, d, iters = 10, seed = 8)
    assert(gk.finalDistortion <= bk.finalDistortion * 1.15,
      s"gk=${gk.finalDistortion} bkm=${bk.finalDistortion}")
  }

  test("gkMeans evaluates far fewer candidates than BKM at the same k") {
    val g = KnnGraph.bruteForce(vecs, 10)
    val gk = Clustering.gkMeans(points, n, 100, d, vecs, g.ids, 10, iters = 5, seed = 9)
    val bk = Clustering.boost(points, n, 100, d, iters = 5, seed = 9)
    assert(gk.distEvals * 3 < bk.distEvals,
      s"gk=${gk.distEvals} bkm=${bk.distEvals}")
  }

  test("gkMeans per-iteration cost is independent of k (paper core claim)") {
    val g = KnnGraph.bruteForce(vecs, 8)
    val a = Clustering.gkMeans(points, n, 50, d, vecs, g.ids, 8, iters = 3, seed = 10)
    val b = Clustering.gkMeans(points, n, 300, d, vecs, g.ids, 8, iters = 3, seed = 10)
    // per-iteration cost is bounded by n*kappa regardless of k (at small k the
    // neighbours collapse into the sample's own cluster, shrinking it further)
    assert(a.distEvals <= n.toLong * 8 * 3)
    assert(b.distEvals <= n.toLong * 8 * 3)
    // and it is nowhere near the full-scan cost n*k*iters
    assert(b.distEvals * 20 < n.toLong * 300 * 3)
  }

  test("gkMeans improves on its 2M-tree initialisation") {
    val g = KnnGraph.bruteForce(vecs, 10)
    val fit = Clustering.gkMeans(points, n, 60, d, vecs, g.ids, 10, iters = 8, seed = 11)
    assert(fit.finalDistortion < fit.distortionByIter.head)
  }

  test("gkMeans minus (NearestRule) runs and improves but is weaker than boost variant") {
    val g = KnnGraph.bruteForce(vecs, 10)
    val gk = Clustering.gkMeans(points, n, 60, d, vecs, g.ids, 10, iters = 8, seed = 12)
    val gkMinus = Clustering.gkMeans(points, n, 60, d, vecs, g.ids, 10, iters = 8, seed = 12, rule = Engine.NearestRule)
    assert(gkMinus.finalDistortion < gkMinus.distortionByIter.head)
    assert(gk.finalDistortion <= gkMinus.finalDistortion * 1.05,
      s"gk=${gk.finalDistortion} gk-=${gkMinus.finalDistortion}")
  }

  test("early stop when no sample moves") {
    val fit = Clustering.lloyd(TestData.tiny, 600, 4, 8, iters = 50, seed = 14)
    // 50 iterations requested; a converged run records fewer distortion points
    assert(fit.distortionByIter.length < 52)
  }

  test("labels produced by every driver are within [0, k)") {
    val g = KnnGraph.bruteForce(vecs, 6)
    Seq(
      Clustering.lloyd(points, n, 15, d, 2, 15),
      Clustering.boost(points, n, 15, d, 2, 15),
      Clustering.gkMeans(points, n, 15, d, vecs, g.ids, 6, 2, 15),
    ).foreach { fit =>
      assert(fit.labels.forall(l => l >= 0 && l < 15))
      val rebuilt = ClusterState.fromLabels(points, fit.labels, 15, d, Some(fit.state))
      assert(fit.state.cnt sameElements rebuilt.cnt)
      (0 until 15).foreach(r => assert(fit.state.comp(r) sameElements rebuilt.comp(r)))
    }
  }

  test("k = 1 fits report the distortion of the mean") {
    val want = TestData.localDistortion(TestData.tinyVecs, new Array[Int](600), 1)
    Seq(
      Clustering.lloyd(TestData.tiny, 600, 1, 8, iters = 2, seed = 17),
      Clustering.boost(TestData.tiny, 600, 1, 8, iters = 2, seed = 17),
    ).foreach { fit =>
      assert(fit.state.cnt sameElements Array(600L))
      assert(math.abs(fit.finalDistortion - want) <= 1e-9 * want, s"E=${fit.finalDistortion} want=$want")
    }
    // Mini-Batch's model is its one centre, a running mean of the sampled
    // points: its E is the distortion about that centre, which the data mean
    // can only undercut.
    val mb = MiniBatchKMeans.fit(TestData.tiny, 600, 1, 8, batches = 2, batchSize = 50, seed = 17)
    val c = mb.state.centroid(0)
    val mbWant = TestData.tinyVecs.map(VecOps.sqDistFD(_, c)).sum / 600
    assert(mb.labels.forall(_ == 0))
    assert(math.abs(mb.finalDistortion - mbWant) <= 1e-9 * mbWant, s"E=${mb.finalDistortion} want=$mbWant")
    assert(mb.finalDistortion >= want * (1 - 1e-9))
  }

  test("gkMeans rejects a short graph and a neighbour id outside [0, n)") {
    val g = Array.tabulate(n)(i => Array((i + 1) % n, (i + 2) % n))
    val short = intercept[IllegalArgumentException](Clustering.gkMeans(points, n, 10, d, vecs, g.init, 2, 1, 18))
    assert(short.getMessage.contains(s"${n - 1} rows"), short.getMessage)
    val shortRow = intercept[IllegalArgumentException](Clustering.gkMeans(points, n, 10, d, vecs, g.updated(17, Array(0)), 2, 1, 18))
    assert(shortRow.getMessage.contains("row 17") && shortRow.getMessage.contains("kappa=2"), shortRow.getMessage)
    Seq(-1, n).foreach { bad =>
      val e = intercept[IllegalArgumentException](Clustering.gkMeans(points, n, 10, d, vecs, g.updated(17, Array(0, bad)), 2, 1, 18))
      assert(e.getMessage.contains("row 17"), e.getMessage)
    }
  }

  test("FitResult totals add up") {
    val fit = Clustering.lloyd(TestData.tiny, 600, 5, 8, 2, 16)
    assert(fit.totalMs == fit.initMs + fit.iterMs)
    assert(fit.finalDistortion == fit.distortionByIter.last)
  }
}
