package repro.core

import org.apache.spark.mllib.clustering.{KMeans, KMeansModel}
import org.apache.spark.mllib.linalg.Vectors
import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}

/** One Lloyd iteration against an independent implementation, MLlib's
  * `KMeans`, started from the same random seeds: the assignment must agree
  * point for point, and the updated centroids to 1e-12 relative.
  */
class LloydOracleSpec extends SparkSpec {

  private def agreesWithMllib(points: Dataset[Point], n: Int, k: Int, d: Int, seed: Long): Unit = {
    val seeds = Clustering.randomSeedState(points, n, k, d, seed)
    val initial = new KMeansModel(Array.tabulate(k)(r => Vectors.dense(seeds.centroid(r))))
    val fit = Clustering.lloyd(points, n, k, d, iters = 0, seed)
    val data = points.rdd.map(p => (p.id.toInt, Vectors.dense(p.vec.map(_.toDouble)))).cache()
    try {
      val wrong = data.collect().count { case (id, v) => fit.labels(id) != initial.predict(v) }
      assert(wrong == 0, s"$wrong of $n labels differ from the MLlib assignment")
      val mllib = new KMeans().setK(k).setInitialModel(initial).setMaxIterations(1).run(data.values)
      val relDiff = (0 until k).flatMap { r =>
        fit.state.centroid(r).zip(mllib.clusterCenters(r).toArray).map { case (a, b) =>
          if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))
        }
      }.max
      assert(relDiff <= 1e-12, s"largest relative centroid difference $relDiff")
    } finally data.unpersist()
  }

  test("Lloyd's first assignment and update equal MLlib KMeans from the same seeds (tiny, k = 12)") {
    agreesWithMllib(TestData.tiny, 600, 12, 8, seed = 1)
  }

  test("Lloyd's first assignment and update equal MLlib KMeans from the same seeds (small, k = 60)") {
    agreesWithMllib(TestData.small, 3000, 60, 16, seed = 2)
  }
}
