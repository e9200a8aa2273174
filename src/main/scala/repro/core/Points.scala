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

/** What one partition's scan found: its ids, the vector length it checked
  * against (the d asked for, else its first vector's, -1 if it has none)
  * with that vector's id, its first fault, or null, and, when collecting,
  * its values row after row (else null).
  */
private final case class Scan(ids: Array[Long], d: Int, firstId: Long, fault: String, vals: Array[Float])

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
    try {
      val scans = pass(ds, "core.Points.cached")(scan(-1, collect = false))
      check(scans, scans.map(_.ids.length).sum)
    } catch { case e: Throwable => ds.unpersist(); throw e }
    ds
  }

  /** One pass over the points: `f` runs on every partition of `points.rdd`
    * as one Spark job of one stage, whose final RDD is `points.rdd` itself,
    * and the results come back in partition order. `layer` names the caller
    * (`core.Engine.epoch`, …) as the job's description.
    */
  private[repro] def pass[T: ClassTag](points: Dataset[Point], layer: String)(f: Iterator[Point] => T): Array[T] =
    runJob(points.rdd, layer)(f)

  /** [[pass]] for a pass that indexes an n-array by id and reads d values:
    * `f` sees its partition through a [[Checked]] iterator, and the pass
    * fails unless the partitions saw n points in all.
    */
  private[repro] def pass[T: ClassTag](points: Dataset[Point], layer: String, n: Int, d: Int)(f: Iterator[Point] => T): Array[T] = {
    val out = pass(points, layer) { it =>
      val checked = new Checked(it, n, d)
      (f(checked), checked.seen)
    }
    val seen = out.map(_._2).sum
    require(seen == n, s"the pass saw $seen points, but there are n=$n labels")
    out.map(_._1)
  }

  /** The points of `it`, counted, failing the task, naming the point, on
    * one whose id is outside `[0, n)` or whose vector does not have d values,
    * where a wrong n or d would otherwise be an index error or a silently
    * truncated sum.
    */
  private final class Checked(it: Iterator[Point], n: Int, d: Int) extends Iterator[Point] {
    var seen = 0L
    def hasNext: Boolean = it.hasNext
    def next(): Point = {
      val p = it.next()
      if (p.id < 0 || p.id >= n) throw new IllegalArgumentException(s"point ${p.id} is outside [0, n=$n)")
      if (p.vec.length != d) throw new IllegalArgumentException(s"point ${p.id} has ${p.vec.length} values, expected d=$d")
      seen += 1
      p
    }
  }

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

  /** One partition's scan, up to its first fault: a point needs a vector
    * of d values or, for d < 0, as many as the partition's first vector,
    * all finite. Ships the values only when collecting.
    */
  private def scan(d: Int, collect: Boolean)(it: Iterator[Point]): Scan = {
    val ids = new ArrayBuilder.ofLong
    val vals = new ArrayBuilder.ofFloat
    var len = d
    var firstId = -1L
    var bad: String = null
    while (bad == null && it.hasNext) {
      val p = it.next()
      if (len < 0 && p.vec != null) { len = p.vec.length; firstId = p.id }
      bad =
        if (p.vec == null) s"point ${p.id} has no vector"
        else if (p.vec.length != len && d < 0) s"point ${p.id} has ${p.vec.length} values but point $firstId has $len"
        else if (p.vec.length != len) s"point ${p.id} has ${p.vec.length} values, expected d=$d"
        else if (!finite(p.vec)) s"point ${p.id} has a value that is not finite"
        else null
      if (bad == null) { ids += p.id; if (collect) vals ++= p.vec }
    }
    Scan(ids.result(), len, firstId, bad, if (collect) vals.result() else null)
  }

  private def finite(v: Array[Float]): Boolean = {
    var j = 0
    while (j < v.length && java.lang.Float.isFinite(v(j))) j += 1
    j == v.length
  }

  /** Fails on the first fault any partition found, then on a vector length
    * that differs between partitions, then unless the ids are n distinct
    * values in `[0, n)`, naming an id outside it or seen twice.
    */
  private def check(scans: Array[Scan], n: Int): Unit = {
    scans.foreach(s => require(s.fault == null, s.fault))
    scans.find(_.d >= 0).foreach { first =>
      scans.foreach { s =>
        require(s.d < 0 || s.d == first.d, s"point ${s.firstId} has ${s.d} values but point ${first.firstId} has ${first.d}")
      }
    }
    val seen = new java.util.BitSet(n)
    scans.foreach(_.ids.foreach { id =>
      require(id >= 0 && id < n, s"id $id is outside [0, $n)")
      require(!seen.get(id.toInt), s"id $id appears more than once")
      seen.set(id.toInt)
    })
    require(seen.cardinality == n, s"ids are not dense in [0, $n)")
  }

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
    * on the driver (documented per use). Checks the points as [[cached]]
    * does, with n and d given, so points that did not come through it are
    * checked too. Each partition ships one id array and one flat array of
    * its values.
    */
  def collectVecs(points: Dataset[Point], n: Int, d: Int): Array[Array[Float]] = {
    val scans = pass(points, "core.Points.collectVecs")(scan(d, collect = true))
    check(scans, n)
    val out = new Array[Array[Float]](n)
    scans.foreach { s =>
      var i = 0
      while (i < s.ids.length) { out(s.ids(i).toInt) = java.util.Arrays.copyOfRange(s.vals, i * d, i * d + d); i += 1 }
    }
    out
  }
}
