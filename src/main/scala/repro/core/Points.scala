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
  * with the number of points the partition held, plus its per-cluster sums
  * under the new labels (null when the epoch does not recompute its state).
  */
private[core] final case class MoveChunk(ids: Array[Long], target: Array[Int], evals: Long, seen: Long, sums: PartialSums)

/** One point's candidate-neighbour list produced by in-cluster refinement. */
final case class NbrChunk(id: Long, nbrs: Array[Int], dists: Array[Double])

/** One (node, candidate-neighbour, distance) update in NN-Descent. */
final case class NbrUpdate(node: Int, nbr: Int, dist: Double)

/** What the ingest check found in one partition: its ids, the length of its
  * first vector (-1 if it has none) with that vector's id, and its first
  * fault, or null.
  */
private final case class IngestChunk(ids: Array[Long], d: Int, firstId: Long, fault: String)

object Points {

  /** Typed view over a generated DataFrame; keeps only (id, vec). */
  def fromDF(df: DataFrame): Dataset[Point] = {
    val sp = df.sparkSession
    import sp.implicits._
    df.select("id", "vec").as[Point]
  }

  /** Cached typed points from a generator output; call `unpersist` when done.
    *
    * One pass over `points.rdd` materialises the cache and checks the data:
    * with n the row count, the ids must be dense in `[0, n)`, every vector
    * must have the same length and every value must be finite. A fault fails
    * here, naming the bad id, rather than as a wrong answer later (an id of
    * 2³² + 5 would otherwise act as id 5 wherever a pass indexes by
    * `id.toInt`).
    *
    * Every pass over the points runs on `points.rdd`, which Spark plans once
    * per Dataset and memoizes. It reads the cache only if it is first asked
    * for after `cache()`, so the pass here makes that first call.
    */
  def cached(df: DataFrame): Dataset[Point] = {
    val ds = fromDF(df).cache()
    try check(ds.rdd.mapPartitions(it => Iterator.single(ingestChunk(it))).collect())
    catch { case e: Throwable => ds.unpersist(); throw e }
    ds
  }

  /** Null if p is a well-formed point of dimension d, else what is wrong. */
  private def fault(p: Point, d: Int): String = {
    if (p.vec == null) return s"point ${p.id} has no vector"
    if (p.vec.length != d) return s"point ${p.id} has ${p.vec.length} values, expected d=$d"
    var j = 0
    while (j < d) {
      if (!java.lang.Float.isFinite(p.vec(j))) return s"point ${p.id} has a value that is not finite"
      j += 1
    }
    null
  }

  private def ingestChunk(it: Iterator[Point]): IngestChunk = {
    val ids = new scala.collection.mutable.ArrayBuilder.ofLong
    var d = -1
    var firstId = -1L
    var bad: String = null
    it.foreach { p =>
      if (d < 0 && p.vec != null) { d = p.vec.length; firstId = p.id }
      if (bad == null && p.vec != null && p.vec.length != d) bad = s"point ${p.id} has ${p.vec.length} values but point $firstId has $d"
      if (bad == null) bad = fault(p, d)
      ids += p.id
    }
    IngestChunk(ids.result(), d, firstId, bad)
  }

  /** Fails on the first fault any partition found, then on a vector length
    * that differs between partitions, an id outside `[0, n)` or an id seen
    * twice. n distinct ids in `[0, n)` are dense.
    */
  private def check(chunks: Array[IngestChunk]): Unit = {
    chunks.foreach(c => require(c.fault == null, c.fault))
    chunks.find(_.d >= 0).foreach { first =>
      chunks.foreach { c =>
        require(c.d < 0 || c.d == first.d, s"point ${c.firstId} has ${c.d} values but point ${first.firstId} has ${first.d}")
      }
    }
    val n = chunks.map(_.ids.length.toLong).sum
    val seen = new java.util.BitSet(n.toInt)
    chunks.foreach(_.ids.foreach { id =>
      require(id >= 0 && id < n, s"id $id is outside [0, $n)")
      require(!seen.get(id.toInt), s"id $id appears more than once")
      seen.set(id.toInt)
    })
  }

  /** Fails, naming the point, unless its id is in `[0, n)` and its vector has
    * d values: the per-point check of the passes that index an n-array by id
    * and read d values, where a wrong n or d would otherwise be an index
    * error or a silently truncated sum.
    */
  private[repro] def requireShape(p: Point, n: Int, d: Int): Unit = {
    if (p.id < 0 || p.id >= n) throw new IllegalArgumentException(s"point ${p.id} is outside [0, n=$n)")
    if (p.vec.length != d) throw new IllegalArgumentException(s"point ${p.id} has ${p.vec.length} values, expected d=$d")
  }

  /** Fails unless a pass saw one point per label. */
  private[repro] def requireAllSeen(seen: Long, n: Int): Unit =
    require(seen == n, s"the pass saw $seen points, but there are n=$n labels")

  /** Fetch the vectors for the given ids, as an id-keyed map; fails on an id
    * that no point has.
    */
  def fetchVecs(points: Dataset[Point], ids: Seq[Long]): Map[Long, Array[Float]] = {
    val want = ids.toSet
    val bc = points.sparkSession.sparkContext.broadcast(want)
    val got =
      try points.rdd.filter(p => bc.value.contains(p.id)).map(p => p.id -> p.vec).collect().toMap
      finally bc.destroy()
    ids.foreach(id => require(got.contains(id), s"no point has id $id"))
    got
  }

  /** Collect all vectors ordered by id — used where the model (not the data)
    * needs random access, e.g. NN-Descent candidate distances and the
    * two-means tree. Caller is responsible for keeping n small enough to hold
    * on the driver (documented per use). Rejects ids outside `[0, n)`, ids
    * that are not dense, vectors whose length is not `d` and values that are
    * not finite, so points that did not come through [[cached]] are checked
    * too.
    */
  def collectVecs(points: Dataset[Point], n: Int, d: Int): Array[Array[Float]] = {
    val out = new Array[Array[Float]](n)
    points.rdd.collect().foreach { p =>
      require(p.id >= 0 && p.id < n, s"id ${p.id} is outside [0, $n)")
      val bad = fault(p, d)
      require(bad == null, bad)
      out(p.id.toInt) = p.vec
    }
    require(!out.contains(null), s"ids are not dense in [0, $n)")
    out
  }
}
