package repro.knn

import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}
import repro.core.{Clustering, LocalKMeans, Point}
import repro.eval.Metrics

/** Alg. 3 graph construction: the intertwined evolution must raise recall
  * from the random start, and the produced graph must be structurally valid.
  */
class GraphBuilderSpec extends SparkSpec {

  private lazy val points = TestData.small
  private val n = 3000
  private val d = 16

  private lazy val probe = Probe.sample(points, n, 120, seed = 1)

  test("probe sample carries consistent ground truth") {
    assert(probe.probeIds.length == 120)
    assert(probe.trueIds.forall(_ >= 0))
    assert(probe.trueDists.forall(_ < Double.MaxValue))
  }

  test("probe sample rejects probes = 0, naming probes") {
    val e = intercept[IllegalArgumentException](Probe.sample(points, n, 0, seed = 1))
    assert(e.getMessage.contains("probes=0"), e.getMessage)
  }

  test("build rejects tau = 0, naming tau") {
    val e = intercept[IllegalArgumentException](GraphBuilder.build(points, n, d, kappa = 6, xi = 30, tau = 0, seed = 1))
    assert(e.getMessage.contains("tau=0"), e.getMessage)
  }

  test("build keeps the id-ordered vectors and one record per round") {
    val res = GraphBuilder.build(points, n, d, kappa = 6, xi = 30, tau = 3, seed = 12)
    assert(res.vecs.length == n)
    (0 until n).foreach(i => assert(res.vecs(i) sameElements TestData.smallVecs(i), s"vector $i"))
    assert(res.rounds.length == 3)
    res.rounds.foreach { r =>
      assert(Seq(r.treeMs, r.stateMs, r.epochMs, r.joinMs, r.mergeMs).forall(_ >= 0), s"$r")
      // k0 = n / xi = 100 groups of n points: the largest holds at least the mean
      assert(r.maxGroup >= n / 100 && r.medianGroup >= 1 && r.medianGroup <= r.maxGroup, s"$r")
    }
  }

  test("recall rises well above the random baseline after a few rounds") {
    val res = GraphBuilder.build(points, n, d, kappa = 10, xi = 30, tau = 5, seed = 2, probe = Some(probe))
    assert(res.roundRecalls.length == 5)
    assert(res.roundRecalls.last > 0.5, s"recalls=${res.roundRecalls}")
  }

  test("recall is (weakly) increasing from first to last round — paper Fig. 2") {
    val res = GraphBuilder.build(points, n, d, kappa = 10, xi = 30, tau = 5, seed = 3, probe = Some(probe))
    assert(res.roundRecalls.last >= res.roundRecalls.head - 0.02,
      s"recalls=${res.roundRecalls}")
  }

  test("more rounds never hurt recall much (tau=1 vs tau=6)") {
    val r1 = GraphBuilder.build(points, n, d, kappa = 8, xi = 30, tau = 1, seed = 4, probe = Some(probe))
    val r6 = GraphBuilder.build(points, n, d, kappa = 8, xi = 30, tau = 6, seed = 4, probe = Some(probe))
    assert(r6.roundRecalls.last >= r1.roundRecalls.last - 0.02)
  }

  test("produced graph rows are valid (no self, no dup, sorted)") {
    val res = GraphBuilder.build(points, n, d, kappa = 6, xi = 25, tau = 3, seed = 5)
    res.graph.ids.zip(res.graph.dists).zipWithIndex.foreach { case ((row, dd), i) =>
      assert(!row.contains(i))
      assert(row.distinct.length == row.length)
      assert(dd.toSeq == dd.sorted.toSeq)
    }
  }

  test("graph distances are real (below MaxValue) after refinement") {
    val res = GraphBuilder.build(points, n, d, kappa = 6, xi = 25, tau = 3, seed = 6)
    val measured = res.graph.dists.map(_.count(_ < Double.MaxValue).toDouble).sum / (n * 6)
    assert(measured > 0.9, s"only $measured of entries measured")
  }

  test("kappa larger than cluster size still yields rows") {
    val res = GraphBuilder.build(points, n, d, kappa = 12, xi = 8, tau = 2, seed = 7)
    assert(res.graph.kappa == 12)
  }

  test("build on the tiny set beats NN recall of a random graph") {
    val tinyProbe = Probe.sample(TestData.tiny, 600, 80, seed = 8)
    val res = GraphBuilder.build(TestData.tiny, 600, 8, kappa = 8, xi = 25, tau = 4, seed = 8, probe = Some(tinyProbe))
    val rand = KnnGraph.random(600, 8, 9)
    val randRecall = Metrics.recallTop1(rand.ids, rand.dists, tinyProbe.probeIds, tinyProbe.trueIds, tinyProbe.trueDists)
    assert(res.roundRecalls.last > randRecall + 0.3)
  }

  /** The Alg. 3 rounds written out from public calls: per round, a one-epoch
    * GK-means fit at the round's seed, then `inClusterTopK` over each
    * cluster's members in id order, merged into the random start graph.
    */
  private def referenceBuild(ds: Dataset[Point], kappa: Int, xi: Int, tau: Int, seed: Long): KnnGraph = {
    val vecs = TestData.smallVecs
    val graph = KnnGraph.random(n, kappa, seed)
    (0 until tau).foreach { t =>
      val labels = Clustering.gkMeans(ds, n, n / xi, d, vecs, graph.ids, kappa, iters = 1, seed ^ (1000003L * (t + 1))).labels
      (0 until n).groupBy(labels(_)).values.foreach { m =>
        val ids = m.sorted.toArray
        LocalKMeans.inClusterTopK(ids.map(_.toLong), ids.map(vecs(_)), kappa).foreach { ch =>
          ch.nbrs.indices.foreach(j => graph.merge(ch.id.toInt, ch.nbrs(j), ch.dists(j)))
        }
      }
    }
    graph
  }

  test("the build equals the Alg. 3 rounds written out, bit for bit, on 1 and 4 partitions") {
    val re = points.repartition(4).cache()
    try Seq(points, re).foreach { ds =>
      val got = GraphBuilder.build(ds, n, d, kappa = 8, xi = 30, tau = 3, seed = 11).graph
      val want = referenceBuild(ds, kappa = 8, xi = 30, tau = 3, seed = 11)
      (0 until n).foreach { i =>
        assert(got.ids(i) sameElements want.ids(i), s"row $i")
        assert(got.dists(i) sameElements want.dists(i), s"row $i")
      }
    } finally re.unpersist()
  }

  test("rejects kappa = n, naming kappa and n") {
    val e = intercept[IllegalArgumentException](
      GraphBuilder.build(TestData.d4, 200, 4, kappa = 200, xi = 10, tau = 1, seed = 11))
    assert(e.getMessage.contains("kappa=200") && e.getMessage.contains("n=200"), e.getMessage)
  }

  test("rejects degenerate xi") {
    assertThrows[IllegalArgumentException](
      GraphBuilder.build(points, n, d, kappa = 4, xi = 1, tau = 1, seed = 10))
  }
}
