package repro.core

import repro.{SparkSpec, TestData}
import repro.eval.Metrics

/** Points: the ingest check in `cached`, and passes reading the cache. */
class PointsSpec extends SparkSpec {

  private def good = Seq.tabulate(20)(i => Point(i.toLong, Array(i.toFloat, 1f, -i.toFloat)))

  /** The message `cached` fails with on pts, sliced in order into `parts` partitions. */
  private def rejected(pts: Seq[Point], parts: Int = 2): String = {
    val sp = spark
    import sp.implicits._
    intercept[IllegalArgumentException](Points.cached(sp.sparkContext.parallelize(pts, parts).toDF())).getMessage
  }

  test("cached accepts dense ids in any row order") {
    val sp = spark
    import sp.implicits._
    val points = Points.cached(sp.createDataset(good.reverse).repartition(3).toDF())
    try assert(Points.collectVecs(points, 20, 3).map(_(0).toInt).toSeq == (0 until 20))
    finally points.unpersist()
  }

  test("cached rejects a duplicate id, in one partition or across two") {
    // Two partitions of 10 rows: position 4 shares one with id 3, position 15 does not.
    Seq(4, 15).foreach { at =>
      val msg = rejected(good.updated(at, Point(3, Array(3f, 1f, -3f))))
      assert(msg.contains("id 3 appears more than once"), msg)
    }
  }

  test("cached rejects an id that would wrap to a dense one") {
    val msg = rejected(good.updated(5, Point((1L << 32) + 5, Array(5f, 1f, -5f))))
    assert(msg.contains("id 4294967301 is outside [0, 20)"), msg)
    assert(rejected(good.updated(5, Point(-5, Array(5f, 1f, -5f)))).contains("id -5 is outside"))
  }

  test("cached rejects a ragged vector, a NaN and an infinity, naming the point") {
    Seq(Array(7f, 1f), Array(7f, Float.NaN, 1f), Array(7f, Float.PositiveInfinity, 1f)).foreach { v =>
      val msg = rejected(good.updated(7, Point(7, v)))
      assert(msg.contains("point 7"), msg)
    }
    Seq(1, 2).foreach { parts =>
      val msg = rejected(good.updated(0, Point(0, Array(0f, 1f))), parts)
      assert(msg.contains("but point 0 has 2"), msg)
    }
  }

  test("fetchVecs fails on an id no point has, naming it") {
    val e = intercept[IllegalArgumentException](Points.fetchVecs(TestData.tiny, Seq(3L, 600L)))
    assert(e.getMessage.contains("no point has id 600"), e.getMessage)
  }

  test("passes after cached read the cache, not the source") {
    val sp = spark
    import sp.implicits._
    val rows = sp.sparkContext.longAccumulator("source rows")
    val n = 500
    val df = sp.range(n).map { id => rows.add(1); (id, Array.fill(4)(id.toFloat % 7)) }.toDF("id", "vec")
    val points = Points.cached(df)
    try {
      assert(rows.sum == n)
      val labels = TestData.randomLabels(n, 5, 1)
      val st = ClusterState.fromLabels(points, labels, 5, 4)
      Engine.epoch(points, labels, st, new AllClustersGen(5), Engine.NearestRule)
      Metrics.sumSqNorm(points)
      Points.collectVecs(points, n, 4)
      assert(rows.sum == n, "a pass recomputed the source")
    } finally points.unpersist()
  }
}
