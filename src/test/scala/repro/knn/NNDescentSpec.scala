package repro.knn

import repro.{SparkSpec, TestData}
import repro.core.VecOps
import repro.eval.Metrics
import scala.collection.mutable
import scala.util.Random

/** NN-Descent written out on one machine: every round's candidate pairs
  * merged in node order into one graph, and an n×κ matrix of new flags, each
  * set when a round inserts its entry. The same random graph, reverse
  * sampling and RNG draws as `NNDescent.build`, so its rows and per-round
  * recalls are the ones the distributed rounds must give, bit for bit.
  */
object SequentialNNDescent {

  def build(vecs: Array[Array[Float]], kappa: Int, maxIters: Int, rho: Double, seed: Long, probe: Probe): (KnnGraph, Vector[Double]) = {
    val n = vecs.length
    val graph = KnnGraph.random(n, kappa, seed)
    for (i <- 0 until n) graph.ids(i).sorted.foreach(j => graph.merge(i, j, VecOps.sqDistFF(vecs(i), vecs(j))))
    var fresh = Array.fill(n, kappa)(true)
    val rng = new Random(seed ^ 0xBEEF)
    val cap = math.max(1, (rho * kappa).toInt)
    def sampled(l: List[Int]): Array[Int] =
      if (l.length <= cap) l.toArray else rng.shuffle(l.toArray.toSeq).take(cap).toArray
    val recalls = Vector.newBuilder[Double]
    var t = 0
    var done = false
    while (t < maxIters && !done) {
      val revNew = Array.fill(n)(List.empty[Int])
      val revOld = Array.fill(n)(List.empty[Int])
      for (i <- 0 until n; j <- 0 until kappa) {
        val tgt = graph.ids(i)(j)
        if (fresh(i)(j)) revNew(tgt) ::= i else revOld(tgt) ::= i
      }
      val news = new Array[Array[Int]](n)
      val olds = new Array[Array[Int]](n)
      for (i <- 0 until n) {
        news(i) = ((0 until kappa).filter(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revNew(i))).distinct.toArray
        olds(i) = ((0 until kappa).filterNot(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revOld(i))).distinct.toArray
      }
      val inserted = Array.fill(n)(mutable.Set.empty[Int])
      var updates = 0L
      def pair(a: Int, b: Int): Unit = {
        val dd = VecOps.sqDistFF(vecs(a), vecs(b))
        if (graph.merge(a, b, dd)) { updates += 1; inserted(a) += b }
        if (graph.merge(b, a, dd)) { updates += 1; inserted(b) += a }
      }
      for (u <- 0 until n; a <- news(u).indices) {
        for (b <- a + 1 until news(u).length) pair(news(u)(a), news(u)(b))
        for (o <- olds(u) if o != news(u)(a)) pair(news(u)(a), o)
      }
      fresh = Array.tabulate(n, kappa)((i, j) => inserted(i).contains(graph.ids(i)(j)))
      recalls += Metrics.recallTop1(graph.ids, graph.dists, probe.probeIds, probe.trueIds, probe.trueDists)
      done = updates < 0.002 * n * kappa
      t += 1
    }
    (graph, recalls.result())
  }
}

/** NN-Descent baseline: improvement over rounds, convergence, validity. */
class NNDescentSpec extends SparkSpec {

  private lazy val points = TestData.tiny
  private val n = 600
  private val d = 8

  private lazy val probe = Probe.sample(points, n, 100, seed = 1)

  test("recall improves monotonically-ish and ends high on clustered data") {
    val res = NNDescent.build(points, n, d, kappa = 8, maxIters = 6, rho = 0.5, seed = 2, probe = Some(probe))
    assert(res.roundRecalls.nonEmpty)
    assert(res.roundRecalls.last >= res.roundRecalls.head - 1e-9)
    assert(res.roundRecalls.last > 0.7, s"recalls=${res.roundRecalls}")
  }

  test("graph rows are valid and fully measured") {
    val res = NNDescent.build(points, n, d, kappa = 6, maxIters = 4, rho = 0.5, seed = 3)
    res.graph.ids.zip(res.graph.dists).zipWithIndex.foreach { case ((row, dd), i) =>
      assert(!row.contains(i))
      assert(row.distinct.length == row.length)
      assert(dd.toSeq == dd.sorted.toSeq)
      assert(dd.forall(_ < Double.MaxValue))
    }
  }

  test("initial round distances match the true pair distances") {
    val res = NNDescent.build(points, n, d, kappa = 5, maxIters = 1, rho = 0.5, seed = 4)
    val vecs = TestData.tinyVecs
    (0 until 50).foreach { i =>
      res.graph.ids(i).zip(res.graph.dists(i)).foreach { case (j, dd) =>
        assert(dd == repro.core.VecOps.sqDistFF(vecs(i), vecs(j)))
      }
    }
  }

  test("the default convergence threshold stops the iteration early") {
    val res = NNDescent.build(points, n, d, kappa = 6, maxIters = 10, rho = 0.5, seed = 5, probe = Some(probe))
    assert(res.roundRecalls.length < 10)
  }

  test("the build equals the sequential rounds, bit for bit, on 1 and 4 partitions") {
    val (one, four) = (points.repartition(1).cache(), points.repartition(4).cache())
    try Seq((8, 6, 2L), (6, 10, 5L)).foreach { case (kappa, iters, seed) =>
      val (want, wantRecalls) = SequentialNNDescent.build(TestData.tinyVecs, kappa, iters, 0.5, seed, probe)
      Seq(one, four).foreach { ds =>
        val got = NNDescent.build(ds, n, d, kappa, iters, 0.5, seed, Some(probe))
        assert(got.roundRecalls == wantRecalls, s"kappa=$kappa")
        (0 until n).foreach { i =>
          assert(got.graph.ids(i) sameElements want.ids(i), s"kappa=$kappa row $i")
          assert(got.graph.dists(i) sameElements want.dists(i), s"kappa=$kappa row $i")
        }
      }
    } finally { one.unpersist(); four.unpersist() }
  }

  test("point 0 enters graph rows like any other point") {
    val res = NNDescent.build(points, n, d, kappa = 8, maxIters = 6, rho = 0.5, seed = 2)
    assert(res.graph.ids.exists(_.contains(0)))
  }

  test("handles kappa close to n") {
    val smallPts = TestData.d4
    val res = NNDescent.build(smallPts, 200, 4, kappa = 20, maxIters = 3, rho = 0.5, seed = 6)
    assert(res.graph.kappa == 20)
  }

  test("rejects kappa = n, naming kappa and n") {
    val e = intercept[IllegalArgumentException](
      NNDescent.build(TestData.d4, 200, 4, kappa = 200, maxIters = 1, rho = 0.5, seed = 7))
    assert(e.getMessage.contains("kappa=200") && e.getMessage.contains("n=200"), e.getMessage)
  }

  test("rejects maxIters < 0, naming maxIters") {
    val e = intercept[IllegalArgumentException](
      NNDescent.build(TestData.d4, 200, 4, kappa = 8, maxIters = -1, rho = 0.5, seed = 7))
    assert(e.getMessage.contains("maxIters=-1"), e.getMessage)
  }

  test("rejects rho outside (0, 1], naming rho") {
    Seq(0.0, -0.5, Double.NaN, 1.5).foreach { rho =>
      val e = intercept[IllegalArgumentException](
        NNDescent.build(TestData.d4, 200, 4, kappa = 8, maxIters = 1, rho = rho, seed = 7))
      assert(e.getMessage.contains(s"rho=$rho"), e.getMessage)
    }
  }
}
