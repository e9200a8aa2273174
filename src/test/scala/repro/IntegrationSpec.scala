package repro

import repro.core._
import repro.eval.Purity
import repro.exp.Experiments
import repro.knn.{GraphBuilder, Probe}

/** End-to-end pipeline tests: the full GK-means stack (Alg. 3 graph → Alg. 2
  * clustering) on separable data, and miniature versions of the paper's
  * Table 2 and Fig. 4 experiments.
  */
class IntegrationSpec extends SparkSpec {

  test("full GK-means pipeline recovers mixture structure with high purity") {
    val points = TestData.tiny
    val build = GraphBuilder.build(points, 600, 8, kappa = 8, xi = 25, tau = 4, seed = 1)
    val fit = Clustering.gkMeans(points, 600, 12, 8, build.vecs, build.graph.ids, 8, iters = 10, seed = 1)
    val purity = Purity(TestData.tinyDf.select("id", "gt"), fit.labels, 600)
    assert(purity > 0.7, s"purity=$purity")
  }

  test("GK-means with its own graph is close to BKM distortion end-to-end") {
    val points = TestData.small
    val build = GraphBuilder.build(points, 3000, 16, kappa = 10, xi = 30, tau = 5, seed = 2)
    val gk = Clustering.gkMeans(points, 3000, 100, 16, build.vecs, build.graph.ids, 10, iters = 10, seed = 2)
    val bk = Clustering.boost(points, 3000, 100, 16, iters = 10, seed = 2)
    assert(gk.finalDistortion <= bk.finalDistortion * 1.2,
      s"gk=${gk.finalDistortion} bkm=${bk.finalDistortion}")
  }

  test("miniature Table 2 runs end-to-end and orders methods plausibly") {
    val (rows, estimate) = Experiments.table2(spark, n = 1500, k = 150, iters = 5)
    assert(rows.map(_.method) == Seq("KGraph+GK-means", "GK-means", "closure k-means", "BKM (ref)"))
    assert(rows.forall(r => r.distortion > 0 && r.totalSec > 0))
    assert(estimate > 0)
    // the central Table-2 quality claim: GK-means beats closure k-means
    val gk = rows.find(_.method == "GK-means").get
    val cl = rows.find(_.method == "closure k-means").get
    assert(gk.distortion <= cl.distortion * 1.1, s"gk=${gk.distortion} closure=${cl.distortion}")
  }

  test("miniature config test (Fig. 4) produces all three variants per tau") {
    val rows = Experiments.configTest(spark, n = 1000, k = 60, taus = Seq(1, 3), iters = 3)
    assert(rows.length == 6)
    assert(rows.count(_.method.startsWith("GK-means(")) == 2)
    assert(rows.count(_.method.startsWith("GK-means-(")) == 2)
    assert(rows.count(_.method.startsWith("KGraph+GK")) == 2)
  }

  test("miniature quality run (Fig. 5) returns one row per method") {
    val rows = Experiments.quality(spark, "vlad", n = 1200, k = 40, iters = 3)
    assert(rows.map(_.method) == Seq("k-means", "BKM", "Mini-Batch", "closure k-means", "GK-means", "KGraph+GK-means"))
    assert(rows.forall(_.distortionByIter.nonEmpty))
  }

  test("miniature scalability run (Fig. 6/7) covers both sweeps") {
    val rows = Experiments.scalability(spark, ns = Seq(800), fixedK = 20, ks = Seq(30), fixedN = 800, iters = 2)
    assert(rows.length == 10) // 5 methods x (1 n-point + 1 k-point)
    assert(rows.forall(_.distortion > 0))
  }

  test("graph recall and clustering distortion co-evolve (paper Fig. 2)") {
    val points = TestData.small
    val probe = Probe.sample(points, 3000, 100, 7)
    val build = GraphBuilder.build(points, 3000, 16, kappa = 8, xi = 30, tau = 6, seed = 7, probe = Some(probe))
    // recall must improve substantially over the run
    assert(build.roundRecalls.last > build.roundRecalls.head + 0.2 || build.roundRecalls.head > 0.6,
      s"recalls=${build.roundRecalls}")
  }

  test("the speedup claim: GK-means evals are orders of magnitude below BKM at large k") {
    val points = TestData.small
    val build = GraphBuilder.build(points, 3000, 16, kappa = 8, xi = 30, tau = 3, seed = 8)
    val gk = Clustering.gkMeans(points, 3000, 300, 16, build.vecs, build.graph.ids, 8, iters = 5, seed = 8)
    val perIterPerPoint = gk.distEvals.toDouble / (5 * 3000)
    assert(perIterPerPoint <= 8.0, s"GK-means evaluated $perIterPerPoint clusters/point/iter")
  }
}
