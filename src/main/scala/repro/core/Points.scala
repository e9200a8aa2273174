package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** One data sample: dense id in `[0, n)` plus its feature vector.
  *
  * Ids are dense because every driver-side model structure (labels, k-NN
  * graph rows) is an array indexed by id — the paper's `cLabel[1..n]` and
  * `G[i][j]` representations, kept O(n) and broadcastable.
  */
final case class Point(id: Long, vec: Array[Float])

/** One point's candidate-neighbour list produced by in-cluster refinement. */
final case class NbrChunk(id: Long, nbrs: Array[Int], dists: Array[Double])

/** What the ingest check found in one partition: its ids, the length of its
  * first vector (-1 if it has none) with that vector's id, and its first
  * fault, or null.
  */
private final case class IngestChunk(ids: Array[Long], d: Int, firstId: Long, fault: String)

/** One partition's vectors as `collectVecs` ships them: their ids, their
  * values row after row, and the partition's first fault, or null.
  */
private final case class VecBlock(ids: Array[Long], vals: Array[Float], fault: String)

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
    * Every pass over the points runs on `points.rdd` (see [[pass]]), which
    * Spark plans once per Dataset and memoizes. It reads the cache only if it
    * is first asked for after `cache()`, so the pass here makes that first
    * call.
    */
  def cached(df: DataFrame): Dataset[Point] = {
    val ds = fromDF(df).cache()
    try check(pass(ds, "core.Points.cached")(ingestChunk))
    catch { case e: Throwable => ds.unpersist(); throw e }
    ds
  }

  /** One pass over the points: `f` runs on every partition of `points.rdd`
    * as one Spark job of one stage, whose final RDD is `points.rdd` itself,
    * and the results come back in partition order. `layer` names the caller
    * (`core.Engine.epoch`, …) as the job's description.
    */
  private[repro] def pass[T: ClassTag](points: Dataset[Point], layer: String)(f: Iterator[Point] => T): Array[T] =
    runJob(points.rdd, layer)(f)

  /** `f` on every partition of `rdd` as one `SparkContext.runJob`, described
    * as `layer` for that job only: the caller's description (a job group's,
    * say) is restored afterwards.
    */
  private[repro] def runJob[A, T: ClassTag](rdd: RDD[A], layer: String)(f: Iterator[A] => T): Array[T] = {
    val sc = rdd.sparkContext
    val caller = sc.getLocalProperty(JobDescription)
    sc.setJobDescription(layer)
    try sc.runJob(rdd, new PartitionFn(f), rdd.partitions.indices)
    finally sc.setLocalProperty(JobDescription, caller)
  }

  /** `f` in a named class, handed to the `runJob` overload that wraps it in
    * no lambda of Spark's own. Spark's `ClosureCleaner` re-reads the class
    * file that defines a lambda, with ASM, on every job it is given to; it
    * leaves a function of a named class alone. `f` is a lambda of main
    * source, which never captures a REPL line object, so cleaning it would
    * change nothing.
    */
  private final class PartitionFn[A, T](f: Iterator[A] => T) extends ((TaskContext, Iterator[A]) => T) with Serializable {
    def apply(ctx: TaskContext, it: Iterator[A]): T = f(it)
  }

  private val JobDescription = "spark.job.description"

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
    val bc = points.sparkSession.sparkContext.broadcast(ids.toSet)
    val got =
      try pass(points, "core.Points.fetchVecs")(_.filter(p => bc.value.contains(p.id)).map(p => p.id -> p.vec).toArray).flatten.toMap
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
    * too. Each partition ships one id array and one flat array of its values.
    */
  def collectVecs(points: Dataset[Point], n: Int, d: Int): Array[Array[Float]] = {
    val blocks = pass(points, "core.Points.collectVecs") { it =>
      val ids = new ArrayBuilder.ofLong
      val vals = new ArrayBuilder.ofFloat
      var bad: String = null
      while (bad == null && it.hasNext) {
        val p = it.next()
        bad = if (p.id < 0 || p.id >= n) s"id ${p.id} is outside [0, $n)" else fault(p, d)
        if (bad == null) { ids += p.id; vals ++= p.vec }
      }
      VecBlock(ids.result(), vals.result(), bad)
    }
    val out = new Array[Array[Float]](n)
    blocks.foreach { b =>
      require(b.fault == null, b.fault)
      var i = 0
      while (i < b.ids.length) { out(b.ids(i).toInt) = java.util.Arrays.copyOfRange(b.vals, i * d, i * d + d); i += 1 }
    }
    require(!out.contains(null), s"ids are not dense in [0, $n)")
    out
  }
}
