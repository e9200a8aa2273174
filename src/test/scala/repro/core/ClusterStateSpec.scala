package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.eval.Metrics

/** ClusterState: exact aggregation, the distortion identity the iteration
  * loops rely on, and the empty-cluster fallback convention.
  */
class ClusterStateSpec extends SparkSpec {

  private lazy val points = TestData.tiny
  private lazy val vecs = TestData.tinyVecs
  private val n = 600
  private val d = 8

  private def manualState(labels: Array[Int], k: Int): (Array[Array[Double]], Array[Long]) = {
    val comp = Array.fill(k)(new Array[Double](d))
    val cnt = new Array[Long](k)
    vecs.indices.foreach { i => VecOps.addTo(comp(labels(i)), vecs(i)); cnt(labels(i)) += 1 }
    (comp, cnt)
  }

  test("fromLabels matches a local reference aggregation") {
    val labels = TestData.randomLabels(n, 7, 1)
    val st = ClusterState.fromLabels(points, labels, 7, d)
    val (comp, cnt) = manualState(labels, 7)
    assert(st.cnt.toSeq == cnt.toSeq)
    (0 until 7).foreach { r =>
      (0 until d).foreach(i => assert(math.abs(st.comp(r)(i) - comp(r)(i)) < 1e-6))
    }
  }

  test("fromLabels counts sum to n") {
    val labels = TestData.randomLabels(n, 11, 2)
    assert(ClusterState.fromLabels(points, labels, 11, d).cnt.sum == n)
  }

  test("centroid is composite over count") {
    val labels = TestData.randomLabels(n, 5, 3)
    val st = ClusterState.fromLabels(points, labels, 5, d)
    val c0 = st.centroid(0)
    (0 until d).foreach(i => assert(math.abs(c0(i) - st.comp(0)(i) / st.cnt(0)) < 1e-12))
  }

  test("distortion identity: state form equals the direct pass") {
    val labels = TestData.randomLabels(n, 9, 4)
    val st = ClusterState.fromLabels(points, labels, 9, d)
    val sumSq = Metrics.sumSqNorm(points)
    val viaState = st.distortion(sumSq, n)
    val direct = Metrics.distortionDirect(points, labels, st)
    assert(math.abs(viaState - direct) < 1e-6 * (1 + direct))
  }

  test("distortion identity also holds against the local reference") {
    val labels = TestData.randomLabels(n, 9, 4)
    val st = ClusterState.fromLabels(points, labels, 9, d)
    val sumSq = Metrics.sumSqNorm(points)
    val local = TestData.localDistortion(vecs, labels, 9)
    assert(math.abs(st.distortion(sumSq, n) - local) < 1e-6 * (1 + local))
  }

  test("objectiveI matches a manual computation") {
    val labels = TestData.randomLabels(n, 4, 5)
    val st = ClusterState.fromLabels(points, labels, 4, d)
    val (comp, cnt) = manualState(labels, 4)
    val manual = (0 until 4).filter(cnt(_) > 0).map(r => VecOps.normSqD(comp(r)) / cnt(r)).sum
    assert(math.abs(st.objectiveI - manual) < 1e-6 * (1 + manual))
  }

  test("sqDistToCentroid matches an explicit distance") {
    val labels = TestData.randomLabels(n, 6, 6)
    val st = ClusterState.fromLabels(points, labels, 6, d)
    val x = vecs(17)
    val explicit = VecOps.sqDistFD(x, st.centroid(labels(17)))
    val fast = st.sqDistToCentroid(x, VecOps.normSqF(x), labels(17))
    assert(math.abs(explicit - fast) < 1e-6 * (1 + explicit))
  }

  test("empty cluster inherits previous centroid as fallback") {
    val labelsA = TestData.randomLabels(n, 3, 7)
    val prev = ClusterState.fromLabels(points, labelsA, 4, d) // cluster 3 empty, zero fallback
    val labelsB = Array.fill(n)(0) // clusters 1..3 empty
    val st = ClusterState.fromLabels(points, labelsB, 4, d, Some(prev))
    assert(st.cnt(1) == 0)
    val pc = prev.centroid(1)
    (0 until d).foreach(i => assert(math.abs(st.comp(1)(i) - pc(i)) < 1e-12))
  }

  test("empty cluster distortion contribution is excluded from objectiveI") {
    val labels = Array.fill(n)(0)
    val prev = ClusterState.fromLabels(points, TestData.randomLabels(n, 2, 8), 2, d)
    val st = ClusterState.fromLabels(points, labels, 2, d, Some(prev))
    val (comp, _) = manualState(labels, 2)
    assert(math.abs(st.objectiveI - VecOps.normSqD(comp(0)) / n) < 1e-6)
  }

  test("fromCentroids has zero counts and centroid fallbacks") {
    val cents = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    val st = ClusterState.fromCentroids(cents)
    assert(st.cnt.forall(_ == 0))
    assert(st.centroid(1) sameElements Array(3.0, 4.0))
  }

  test("fromLabels with a wrong d fails, naming a point and both lengths") {
    val labels = TestData.randomLabels(n, 5, 13)
    Seq(d / 2, 2 * d).foreach { bad =>
      val e = intercept[org.apache.spark.SparkException](ClusterState.fromLabels(points, labels, 5, bad))
      assert(e.getMessage.matches(s"(?s).*point \\d+ has $d values, expected d=$bad.*"), e.getMessage)
    }
  }

  test("sqDistToCentroid against an empty cluster uses the fallback centroid") {
    val st = ClusterState.fromCentroids(Array(Array(0.0, 0.0)))
    val dd = st.sqDistToCentroid(Array(3f, 4f), 25.0, 0)
    assert(math.abs(dd - 25.0) < 1e-9)
  }

  test("nonEmptyClusters counts only populated clusters") {
    val labels = Array.tabulate(n)(i => i % 2)
    val st = ClusterState.fromLabels(points, labels, 5, d)
    assert(st.cnt.count(_ > 0) == 2)
  }

  test("oracle: cluster sizes match DuckDB") {
    val labels = TestData.randomLabels(n, 6, 10)
    val st = ClusterState.fromLabels(points, labels, 6, d)
    val sp = spark
    import sp.implicits._
    val sparkSizes = (0 until 6).map(r => (r, st.cnt(r))).toDF("label", "c")
    val assigned = labels.zipWithIndex.map { case (l, i) => (i.toLong, l) }.toSeq.toDF("id", "label")
    Oracle.assertEquivalent(
      sparkSizes,
      "SELECT CAST(label AS INT) AS label, COUNT(*) AS c FROM assign GROUP BY label",
      "assign" -> assigned,
    )
  }

  test("oracle: per-cluster centroid means match DuckDB (d=4)") {
    val labels = TestData.randomLabels(200, 4, 11)
    val st = ClusterState.fromLabels(TestData.d4, labels, 4, 4)
    val sp = spark
    import sp.implicits._
    val sparkCent = (0 until 4).map { r =>
      val c = st.centroid(r)
      (r, c(0), c(1), c(2), c(3))
    }.toDF("label", "c0", "c1", "c2", "c3")
    val flat = TestData.flat(TestData.d4Df, 4)
    val assigned = labels.zipWithIndex.map { case (l, i) => (i.toLong, l) }.toSeq.toDF("id", "label")
    Oracle.assertEquivalent(
      sparkCent,
      """SELECT CAST(a.label AS INT) AS label,
        |       AVG(CAST(p.x0 AS DOUBLE)) AS c0, AVG(CAST(p.x1 AS DOUBLE)) AS c1,
        |       AVG(CAST(p.x2 AS DOUBLE)) AS c2, AVG(CAST(p.x3 AS DOUBLE)) AS c3
        |FROM pts p JOIN assign a ON CAST(p.id AS BIGINT) = CAST(a.id AS BIGINT)
        |GROUP BY a.label""".stripMargin,
      "pts" -> flat,
      "assign" -> assigned,
    )
  }

  test("passes on points.rdd see the Dataset's rows and sums, bit for bit") {
    val sp = spark
    import sp.implicits._
    val (n, d, k) = (3000, 16, 40)
    val labels = TestData.randomLabels(n, k, 12)
    val re = TestData.small.repartition(4).cache()
    try Seq(TestData.small, re).foreach { pts =>
      val rddIds = pts.rdd.mapPartitions(it => Iterator.single(it.map(_.id).toArray)).collect()
      val dsIds = pts.mapPartitions(it => Iterator.single(it.map(_.id).toArray)).collect()
      assert(rddIds.map(_.toSeq).toSeq == dsIds.map(_.toSeq).toSeq)

      // fromLabels and sumSqNorm as typed Dataset queries.
      val parts = pts.mapPartitions { it =>
        val acc = new PartialSums(k, d)
        it.foreach(p => acc.add(labels(p.id.toInt), p.vec))
        Iterator.single((acc.sum, acc.cnt))
      }.collect().map { case (sum, cnt) =>
        val acc = new PartialSums(k, d)
        sum.copyToArray(acc.sum)
        cnt.copyToArray(acc.cnt)
        acc
      }
      val want = ClusterState.fromSums(parts, k, d, None)
      val got = ClusterState.fromLabels(pts, labels, k, d)
      assert(got.cnt.toSeq == want.cnt.toSeq)
      (0 until k).foreach(r => assert(java.util.Arrays.equals(got.comp(r), want.comp(r)), s"cluster $r"))
      val sumSq = pts.mapPartitions { it =>
        var s = 0.0
        it.foreach(p => s += VecOps.normSqF(p.vec))
        Iterator.single(s)
      }.collect().sum
      assert(Metrics.sumSqNorm(pts) == sumSq)
    }
    finally re.unpersist()
  }
}
