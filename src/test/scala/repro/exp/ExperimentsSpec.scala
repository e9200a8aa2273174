package repro.exp

import repro.{SparkSpec, TestData}
import repro.knn.Probe

/** Experiment harness: runners return well-formed table rows; formatting and
  * the full-k-means extrapolation behave sanely.
  */
class ExperimentsSpec extends SparkSpec {

  private lazy val points = TestData.small
  private val n = 3000
  private val d = 16

  test("gkRun returns a row with timings, distortion and recall") {
    val probe = Some(Probe.sample(points, n, 50, 1))
    val (row, fit, build) = Experiments.gkRun(points, n, d, k = 60, kappa = 8, xi = 25, tau = 3, iters = 4, seed = 1, probe)
    assert(row.method == "GK-means")
    assert(row.totalSec >= row.iterSec && row.totalSec >= row.initSec)
    assert(row.distortion > 0 && !row.recall.isNaN)
    assert(fit.labels.length == n && build.graph.n == n)
  }

  test("kgraphGkRun labels the method correctly") {
    val row = Experiments.kgraphGkRun(points, n, d, k = 40, kappa = 6, nndIters = 2, rho = 0.5, iters = 3, seed = 2, None)
    assert(row.method == "KGraph+GK-means")
    assert(row.recall.isNaN) // no probe supplied
  }

  test("closureRun reports N.A. recall") {
    val (row, _) = Experiments.closureRun(points, n, d, k = 40, iters = 3, seed = 3)
    assert(row.method == "closure k-means" && row.recall.isNaN)
  }

  test("lloydRun and boostRun produce comparable rows") {
    val ll = Experiments.lloydRun(points, n, d, k = 20, iters = 3, seed = 4)
    val bk = Experiments.boostRun(points, n, d, k = 20, iters = 3, seed = 4)
    assert(ll.method == "k-means" && bk.method == "BKM")
    assert(ll.distortion > 0 && bk.distortion > 0)
  }

  test("miniBatchRun row carries the batch count as iters") {
    val row = Experiments.miniBatchRun(points, n, d, k = 20, batches = 7, batchSize = 100, seed = 5)
    assert(row.method == "Mini-Batch" && row.iters == 7)
  }

  test("estimateFullKMeansSec is positive and scales with iterations") {
    val e5 = Experiments.estimateFullKMeansSec(points, n, d, k = 50, iters = 5, seed = 6)
    assert(e5 > 0)
  }

  test("fmtTable renders every method row") {
    val ll = Experiments.lloydRun(TestData.tiny, 600, 8, k = 10, iters = 2, seed = 7)
    val s = Experiments.fmtTable(Seq(ll))
    assert(s.contains("k-means") && s.contains("Method") && s.contains("N.A."))
  }

  test("dataset dispatch covers the four names and rejects unknowns") {
    Seq("sift" -> 128, "vlad" -> 64, "glove" -> 100, "gist" -> 480).foreach { case (name, dim) =>
      val df = Experiments.dataset(spark, name, 200)
      assert(df.selectExpr("size(vec) as s").head().getInt(0) == dim)
    }
    assertThrows[IllegalArgumentException](Experiments.dataset(spark, "nope", 10))
  }

  test("table1 reports the four datasets with correct dims") {
    val rows = Experiments.table1(spark)
    assert(rows.map(_.name) == Seq("SIFT1M-lite", "VLAD10M-lite", "Glove1M-lite", "GIST1M-lite"))
    assert(rows.map(_.d) == Seq(128, 64, 100, 480))
    assert(rows.forall(_.n > 0))
  }

  test("fmtTable1 renders the dataset rows") {
    val s = Experiments.fmtTable1(Seq(Experiments.DatasetRow("X", "1M x 2", 10, 2, "t")))
    assert(s.contains("X") && s.contains("Dataset"))
  }
}
