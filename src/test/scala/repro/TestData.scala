package repro

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core.{Point, Points}

/** Shared, lazily-cached test datasets (one SparkSession per test JVM, so
  * these generate once per run).
  *
  *  - `tiny`: 600 x 8, 12 well-separated centres — for exactness checks.
  *  - `small`: 3000 x 16, 40 centres — for behavioural/quality checks.
  *  - `d4`: 200 x 4 — low-d data flattened into scalar columns for the
  *    DuckDB oracle.
  */
object TestData {
  private def spark = SparkSpec.shared

  lazy val tinyDf: DataFrame = SynthData.clusteredVectors(spark, 600, 8, 12, noise = 0.05, seed = 101).cache()
  lazy val tiny: Dataset[Point] = Points.cached(tinyDf)
  lazy val tinyGt: Array[Int] = collectGt(tinyDf, 600)

  lazy val smallDf: DataFrame = SynthData.clusteredVectors(spark, 3000, 16, 40, noise = 0.08, seed = 102).cache()
  lazy val small: Dataset[Point] = Points.cached(smallDf)
  lazy val smallGt: Array[Int] = collectGt(smallDf, 3000)

  lazy val d4Df: DataFrame = SynthData.clusteredVectors(spark, 200, 4, 5, noise = 0.1, seed = 103).cache()
  lazy val d4: Dataset[Point] = Points.cached(d4Df)

  lazy val tinyVecs: Array[Array[Float]] = Points.collectVecs(tiny, 600, 8)
  lazy val smallVecs: Array[Array[Float]] = Points.collectVecs(small, 3000, 16)
  lazy val d4Vecs: Array[Array[Float]] = Points.collectVecs(d4, 200, 4)

  def collectGt(df: DataFrame, n: Int): Array[Int] = {
    val out = new Array[Int](n)
    df.select("id", "gt").collect().foreach(r => out(r.getLong(0).toInt) = r.getInt(1))
    out
  }

  /** Flatten a low-d vector DataFrame to scalar columns for the oracle. */
  def flat(df: DataFrame, d: Int): DataFrame = {
    import org.apache.spark.sql.functions._
    df.select(col("id") +: (0 until d).map(i => element_at(col("vec"), i + 1).cast("double") as s"x$i"): _*)
  }

  /** Local average distortion of a label assignment (reference impl). */
  def localDistortion(vecs: Array[Array[Float]], labels: Array[Int], k: Int): Double = {
    val d = vecs(0).length
    val sums = Array.fill(k)(new Array[Double](d))
    val cnt = new Array[Long](k)
    vecs.indices.foreach { i => repro.core.VecOps.addTo(sums(labels(i)), vecs(i)); cnt(labels(i)) += 1 }
    val cents = (0 until k).map(r => if (cnt(r) > 0) repro.core.VecOps.centroidOf(sums(r), cnt(r)) else new Array[Double](d))
    vecs.indices.map(i => repro.core.VecOps.sqDistFD(vecs(i), cents(labels(i)))).sum / vecs.length
  }

  /** Labels assigning every point uniformly at random to [0, k). */
  def randomLabels(n: Int, k: Int, seed: Long): Array[Int] = {
    val rng = new scala.util.Random(seed)
    Array.fill(n)(rng.nextInt(k))
  }
}
