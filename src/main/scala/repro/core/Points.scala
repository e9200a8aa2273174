package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}

/** One data sample: dense id in `[0, n)` plus its feature vector.
  *
  * Ids are dense because every driver-side model structure (labels, k-NN
  * graph rows) is an array indexed by id — the paper's `cLabel[1..n]` and
  * `G[i][j]` representations, kept O(n) and broadcastable.
  */
final case class Point(id: Long, vec: Array[Float])

/** Per-partition chunk of accepted moves emitted by one `Engine.epoch` pass,
  * plus the partition's per-cluster sums under the new labels.
  */
final case class MoveChunk(ids: Array[Long], target: Array[Int], evals: Long, sums: Array[SumChunk])

/** Per-partition sparse partial sum for one cluster (composite + count). */
final case class SumChunk(r: Int, sum: Array[Double], cnt: Long)

/** One point's candidate-neighbour list produced by in-cluster refinement. */
final case class NbrChunk(id: Long, nbrs: Array[Int], dists: Array[Double])

/** One (node, candidate-neighbour, distance) update in NN-Descent. */
final case class NbrUpdate(node: Int, nbr: Int, dist: Double)

object Points {

  /** Typed view over a generated DataFrame; keeps only (id, vec). */
  def fromDF(df: DataFrame): Dataset[Point] = {
    val sp = df.sparkSession
    import sp.implicits._
    df.select("id", "vec").as[Point]
  }

  /** Cached typed points from a generator output; call `unpersist` when done. */
  def cached(df: DataFrame): Dataset[Point] = {
    val ds = fromDF(df).cache()
    ds.count() // materialise so downstream timings exclude generation
    ds
  }

  /** Fetch the vectors for the given ids, as an id-keyed map. */
  def fetchVecs(points: Dataset[Point], ids: Seq[Long]): Map[Long, Array[Float]] = {
    val want = ids.toSet
    val bc = points.sparkSession.sparkContext.broadcast(want)
    try points.filter(p => bc.value.contains(p.id)).collect().map(p => p.id -> p.vec).toMap
    finally bc.destroy()
  }

  /** Collect all vectors ordered by id — used where the model (not the data)
    * needs random access, e.g. NN-Descent candidate distances and the
    * two-means tree. Caller is responsible for keeping n small enough to hold
    * on the driver (documented per use). Rejects ids outside `[0, n)`, ids
    * that are not dense, vectors whose length is not `d` and values that are
    * not finite.
    */
  def collectVecs(points: Dataset[Point], n: Int, d: Int): Array[Array[Float]] = {
    val out = new Array[Array[Float]](n)
    points.collect().foreach { p =>
      require(p.id >= 0 && p.id < n, s"id ${p.id} is outside [0, $n)")
      require(p.vec.length == d, s"point ${p.id} has ${p.vec.length} values, expected d=$d")
      var j = 0
      while (j < d) { require(java.lang.Float.isFinite(p.vec(j)), s"point ${p.id} has a value that is not finite"); j += 1 }
      out(p.id.toInt) = p.vec
    }
    require(!out.contains(null), s"ids are not dense in [0, $n)")
    out
  }
}
