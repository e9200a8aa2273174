package repro.eval

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core.{ClusterState, VecOps}
import repro.knn.KnnGraph

/** Metrics: sums, distortion, brute-force ground truth, recall, purity —
  * each against local references and (where DataFrame-computable) DuckDB.
  */
class MetricsSpec extends SparkSpec {

  private lazy val points = TestData.tiny
  private lazy val vecs = TestData.tinyVecs
  private val n = 600

  test("sumSqNorm matches the local sum") {
    val local = vecs.map(VecOps.normSqF).sum
    assert(math.abs(Metrics.sumSqNorm(points) - local) < 1e-6 * (1 + local))
  }

  test("oracle: sumSqNorm matches DuckDB (d=4)") {
    val sp = spark
    import sp.implicits._
    val s = Metrics.sumSqNorm(TestData.d4)
    val sparkDf = Seq(BigDecimal(s).setScale(4, BigDecimal.RoundingMode.HALF_UP).toDouble).toDF("ssq")
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT ROUND(SUM(CAST(x0 AS DOUBLE)*CAST(x0 AS DOUBLE) + CAST(x1 AS DOUBLE)*CAST(x1 AS DOUBLE) +
        |                CAST(x2 AS DOUBLE)*CAST(x2 AS DOUBLE) + CAST(x3 AS DOUBLE)*CAST(x3 AS DOUBLE)), 4) AS ssq
        |FROM pts""".stripMargin,
      "pts" -> TestData.flat(TestData.d4Df, 4),
    )
  }

  test("distortionDirect matches the local reference") {
    val labels = TestData.randomLabels(n, 8, 21)
    val st = ClusterState.fromLabels(points, labels, 8, 8)
    val local = TestData.localDistortion(vecs, labels, 8)
    assert(math.abs(Metrics.distortionDirect(points, labels, st) - local) < 1e-6 * (1 + local))
  }

  test("distortionDirect with too few or too many labels fails, naming a point or both counts") {
    val labels = TestData.randomLabels(n, 8, 21)
    val st = ClusterState.fromLabels(points, labels, 8, 8)
    val short = intercept[org.apache.spark.SparkException](Metrics.distortionDirect(points, labels.take(n / 2), st))
    assert(short.getMessage.matches(s"(?s).*point \\d+ is outside \\[0, n=${n / 2}\\).*"), short.getMessage)
    val long = intercept[IllegalArgumentException](Metrics.distortionDirect(points, labels ++ labels, st))
    assert(long.getMessage.contains(s"saw $n points, but there are n=${2 * n} labels"), long.getMessage)
  }

  test("distortionDirect against a state whose d exceeds the vectors fails, naming a point and both lengths") {
    val st = ClusterState.fromCentroids(Array.fill(8)(new Array[Double](16)))
    val e = intercept[org.apache.spark.SparkException](Metrics.distortionDirect(points, TestData.randomLabels(n, 8, 21), st))
    assert(e.getMessage.matches("(?s).*point \\d+ has 8 values, expected d=16.*"), e.getMessage)
  }

  test("bruteTop1 matches a local brute-force scan") {
    val probes = Array(0L, 17L, 99L, 401L)
    val (ids, dists) = Metrics.bruteTop1(points, probes)
    probes.indices.foreach { q =>
      val i = probes(q).toInt
      val best = vecs.indices.filter(_ != i).minBy(j => (VecOps.sqDistFF(vecs(i), vecs(j)), j.toLong))
      assert(ids(q) == best.toLong)
      assert(math.abs(dists(q) - VecOps.sqDistFF(vecs(i), vecs(best))) < 1e-9)
    }
  }

  test("bruteTop1 never returns the probe itself") {
    val probes = Array(3L, 5L, 8L)
    val (ids, _) = Metrics.bruteTop1(points, probes)
    probes.indices.foreach(q => assert(ids(q) != probes(q)))
  }

  test("oracle: top-1 neighbours match a DuckDB self-join (d=4)") {
    val sp = spark
    import sp.implicits._
    val probes = (0L until 200L).toArray
    val (ids, _) = Metrics.bruteTop1(TestData.d4, probes)
    val sparkDf = probes.indices.map(q => (probes(q), ids(q))).toDF("id", "nn")
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT CAST(a.id AS BIGINT) AS id,
        |       (SELECT CAST(b.id AS BIGINT) FROM pts b WHERE b.id <> a.id
        |        ORDER BY (CAST(a.x0 AS DOUBLE)-CAST(b.x0 AS DOUBLE))*(CAST(a.x0 AS DOUBLE)-CAST(b.x0 AS DOUBLE))
        |               + (CAST(a.x1 AS DOUBLE)-CAST(b.x1 AS DOUBLE))*(CAST(a.x1 AS DOUBLE)-CAST(b.x1 AS DOUBLE))
        |               + (CAST(a.x2 AS DOUBLE)-CAST(b.x2 AS DOUBLE))*(CAST(a.x2 AS DOUBLE)-CAST(b.x2 AS DOUBLE))
        |               + (CAST(a.x3 AS DOUBLE)-CAST(b.x3 AS DOUBLE))*(CAST(a.x3 AS DOUBLE)-CAST(b.x3 AS DOUBLE)),
        |                 CAST(b.id AS BIGINT) LIMIT 1) AS nn
        |FROM pts a""".stripMargin,
      "pts" -> TestData.flat(TestData.d4Df, 4),
    )
  }

  test("recallTop1 is 1.0 for the exact graph") {
    val g = KnnGraph.bruteForce(vecs, 5)
    val probes = Array(1L, 2L, 50L, 300L, 599L)
    val (ti, td) = Metrics.bruteTop1(points, probes)
    assert(Metrics.recallTop1(g.ids, g.dists, probes, ti, td) == 1.0)
  }

  test("recallTop1 is low for a random graph") {
    val g = KnnGraph.random(n, 5, 1)
    // give random entries their true distances so ties resolve honestly
    val probes = (0L until 100L).toArray
    val (ti, td) = Metrics.bruteTop1(points, probes)
    assert(Metrics.recallTop1(g.ids, g.dists, probes, ti, td) < 0.2)
  }

  test("recallTop1 counts an exact distance tie as a hit") {
    val gIds = Array(Array(7), Array(0))
    val gDists = Array(Array(1.0), Array(1.0))
    val r = Metrics.recallTop1(gIds, gDists, Array(0L), Array(3L), Array(1.0))
    assert(r == 1.0)
  }

  test("purity of the ground-truth labelling is 1.0") {
    val p = Purity(TestData.tinyDf.select("id", "gt"), TestData.tinyGt, n)
    assert(p == 1.0)
  }

  test("purity of a constant labelling equals the largest component share") {
    val labels = Array.fill(n)(0)
    val biggest = TestData.tinyGt.groupBy(identity).map(_._2.length).max
    val p = Purity(TestData.tinyDf.select("id", "gt"), labels, n)
    assert(math.abs(p - biggest.toDouble / n) < 1e-12)
  }

  test("oracle: purity contingency counts match DuckDB") {
    val sp = spark
    import sp.implicits._
    val labels = TestData.randomLabels(n, 4, 31)
    val assigned = labels.zipWithIndex.map { case (l, i) => (i.toLong, l) }.toSeq.toDF("id", "label")
    val contingency = TestData.tinyDf.select("id", "gt").join(assigned, "id")
      .groupBy("label", "gt").agg(count(lit(1)) as "c")
      .select(col("label").cast("int") as "label", col("gt").cast("int") as "gt", col("c"))
    Oracle.assertEquivalent(
      contingency,
      """SELECT CAST(a.label AS INT) AS label, CAST(p.gt AS INT) AS gt, COUNT(*) AS c
        |FROM pts p JOIN assign a ON CAST(p.id AS BIGINT) = CAST(a.id AS BIGINT)
        |GROUP BY a.label, p.gt""".stripMargin,
      "pts" -> TestData.tinyDf.select("id", "gt"),
      "assign" -> assigned,
    )
  }
}
