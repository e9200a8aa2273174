package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic dense-vector datasets for the k-means / k-NN-graph reproduction.
  *
  * The paper evaluates on SIFT/VLAD/GloVe/GIST descriptor sets, which are
  * clustered on a manifold — exactly the property GK-means exploits (one
  * sample and its nearest neighbours co-occur in a cluster, paper Fig. 1).
  * A Gaussian mixture reproduces that property and the same flop profile,
  * so these generators stand in for the public corpora (see DESIGN.md
  * substitutions). Every generator is deterministic in (seed, id), so the
  * DuckDB oracle sees identical input.
  */
object SynthData {

  /** Gaussian-mixture vectors: `nCenters` uniform centres in `[0, scale]^d`,
    * each point = centre + N(0, (noise·scale)²) per coordinate.
    * Deterministic in (seed, id) regardless of partitioning. Columns:
    * (id: long, vec: array<float>, gt: int) where gt is the true centre.
    */
  def clusteredVectors(
      spark: SparkSession,
      n: Long,
      d: Int,
      nCenters: Int,
      noise: Double = 0.15,
      seed: Long = 9,
      scale: Double = 1.0,
  ): DataFrame = {
    import spark.implicits._
    val centerRng = new scala.util.Random(seed)
    val centers = Array.fill(nCenters, d)((centerRng.nextDouble() * scale).toFloat)
    val bc = spark.sparkContext.broadcast(centers)
    val sigma = noise * scale
    spark.range(n).map { id =>
      val rng = new scala.util.Random(seed ^ (id * 0x9E3779B97F4A7C15L))
      val gt = rng.nextInt(nCenters)
      val c = bc.value(gt)
      val v = new Array[Float](d)
      var i = 0
      while (i < d) { v(i) = (c(i) + sigma * rng.nextGaussian()).toFloat; i += 1 }
      (id, v, gt)
    }.toDF("id", "vec", "gt")
  }

  /** SIFT1M stand-in: 128-d local descriptors, value range ≈ [0, 255]. */
  def siftLite(spark: SparkSession, n: Long = 100000, nCenters: Int = 1000, seed: Long = 21): DataFrame =
    clusteredVectors(spark, n, d = 128, nCenters, noise = 0.28, seed, scale = 255.0)

  /** VLAD10M stand-in: global image descriptors, dimension scaled 512 → 64. */
  def vladLite(spark: SparkSession, n: Long = 100000, nCenters: Int = 2000, seed: Long = 22): DataFrame =
    clusteredVectors(spark, n, d = 64, nCenters, noise = 0.35, seed, scale = 1.0)

  /** Glove1M stand-in: 100-d word vectors. */
  def gloveLite(spark: SparkSession, n: Long = 100000, nCenters: Int = 1500, seed: Long = 23): DataFrame =
    clusteredVectors(spark, n, d = 100, nCenters, noise = 0.4, seed, scale = 2.0)

  /** GIST1M stand-in: high-d global descriptors, dimension scaled 960 → 480. */
  def gistLite(spark: SparkSession, n: Long = 20000, nCenters: Int = 500, seed: Long = 24): DataFrame =
    clusteredVectors(spark, n, d = 480, nCenters, noise = 0.3, seed, scale = 1.0)
}
