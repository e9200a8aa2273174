package repro

import org.apache.spark.sql.functions._
import repro.core.{Points, VecOps}

/** Generator tests: shape, determinism, and the clustered structure the
  * paper's method relies on (neighbours co-occur in mixture components).
  */
class SynthDataSpec extends SparkSpec {

  test("clusteredVectors produces n rows") {
    assert(TestData.tinyDf.count() == 600)
  }

  test("clusteredVectors vectors have the requested dimension") {
    assert(TestData.tinyDf.selectExpr("size(vec) as s").agg(min("s"), max("s")).head() ==
      org.apache.spark.sql.Row(8, 8))
  }

  test("clusteredVectors ids are dense in [0, n)") {
    val ids = TestData.tinyDf.select("id").collect().map(_.getLong(0)).sorted
    assert(ids sameElements Array.tabulate(600)(_.toLong))
  }

  test("clusteredVectors gt labels are within [0, nCenters)") {
    val r = TestData.tinyDf.agg(min("gt"), max("gt")).head()
    assert(r.getInt(0) >= 0 && r.getInt(1) < 12)
  }

  test("clusteredVectors covers every centre at this size") {
    assert(TestData.tinyDf.select("gt").distinct().count() == 12)
  }

  test("clusteredVectors is deterministic in (seed, id)") {
    val a = SynthData.clusteredVectors(spark, 100, 6, 4, 0.1, seed = 7).collect().sortBy(_.getLong(0))
    val b = SynthData.clusteredVectors(spark, 100, 6, 4, 0.1, seed = 7).collect().sortBy(_.getLong(0))
    a.zip(b).foreach { case (x, y) =>
      assert(x.getLong(0) == y.getLong(0))
      assert(x.getSeq[Float](1) == y.getSeq[Float](1))
      assert(x.getInt(2) == y.getInt(2))
    }
  }

  test("clusteredVectors determinism survives repartitioning") {
    val a = SynthData.clusteredVectors(spark, 100, 6, 4, 0.1, seed = 7).repartition(13)
      .collect().sortBy(_.getLong(0)).map(_.getSeq[Float](1))
    val b = SynthData.clusteredVectors(spark, 100, 6, 4, 0.1, seed = 7)
      .collect().sortBy(_.getLong(0)).map(_.getSeq[Float](1))
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different data") {
    val a = SynthData.clusteredVectors(spark, 50, 6, 4, 0.1, seed = 1).collect().sortBy(_.getLong(0)).map(_.getSeq[Float](1))
    val b = SynthData.clusteredVectors(spark, 50, 6, 4, 0.1, seed = 2).collect().sortBy(_.getLong(0)).map(_.getSeq[Float](1))
    assert(a.toSeq != b.toSeq)
  }

  test("within-component distances are smaller than cross-component distances") {
    val vecs = TestData.tinyVecs
    val gt = TestData.tinyGt
    val rng = new scala.util.Random(5)
    var within = 0.0; var cross = 0.0; var wn = 0; var cn = 0
    (0 until 4000).foreach { _ =>
      val i = rng.nextInt(vecs.length); val j = rng.nextInt(vecs.length)
      if (i != j) {
        val dd = VecOps.sqDistFF(vecs(i), vecs(j))
        if (gt(i) == gt(j)) { within += dd; wn += 1 } else { cross += dd; cn += 1 }
      }
    }
    assert(wn > 0 && cn > 0)
    assert(within / wn < 0.5 * (cross / cn), "mixture must be clearly clustered")
  }

  test("siftLite is 128-dimensional with a [0,255]-like range") {
    val df = SynthData.siftLite(spark, n = 500, nCenters = 10)
    assert(df.selectExpr("size(vec) as s").agg(max("s")).head().getInt(0) == 128)
    val mx = Points.collectVecs(Points.fromDF(df), 500, 128).flatten.max
    // centres live in [0,255]; noise sigma is 0.28*255, so the max stays
    // within a few sigma of the range
    assert(mx > 50.0f && mx < 255.0f + 6 * 72.0f)
  }

  test("vladLite is 64-dimensional") {
    assert(SynthData.vladLite(spark, 100, 8).selectExpr("size(vec) as s").agg(max("s")).head().getInt(0) == 64)
  }

  test("gloveLite is 100-dimensional") {
    assert(SynthData.gloveLite(spark, 100, 8).selectExpr("size(vec) as s").agg(max("s")).head().getInt(0) == 100)
  }

  test("gistLite is 480-dimensional") {
    assert(SynthData.gistLite(spark, 100, 8).selectExpr("size(vec) as s").agg(max("s")).head().getInt(0) == 480)
  }

  test("oracle: per-component counts match DuckDB") {
    val counts = TestData.tinyDf.groupBy("gt").agg(count(lit(1)) as "c").select(col("gt").cast("int") as "gt", col("c"))
    Oracle.assertEquivalent(
      counts,
      "SELECT CAST(gt AS INT) AS gt, COUNT(*) AS c FROM pts GROUP BY gt",
      "pts" -> TestData.tinyDf.select("id", "gt"),
    )
  }
}
