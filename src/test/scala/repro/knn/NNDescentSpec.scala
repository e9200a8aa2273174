package repro.knn

import repro.{SparkSpec, TestData}

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

  test("a loose convergence threshold stops the iteration early") {
    val res = NNDescent.build(points, n, d, kappa = 6, maxIters = 10, rho = 0.5, seed = 5,
      convergenceDelta = 0.9, probe = Some(probe))
    assert(res.roundRecalls.length < 10)
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
}
