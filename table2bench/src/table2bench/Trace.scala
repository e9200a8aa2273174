package table2bench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark counters of one span call, filled in by [[SpanListener]]. */
final class SpanCounters {
  var jobs = 0L
  var tasks = 0L
  var taskMs = 0L
  var gcMs = 0L
  var shuffleWriteB = 0L
  var shuffleReadB = 0L
  var resultB = 0L
  val taskRunMs = mutable.ArrayBuffer.empty[Long]
  val jobIntervals = mutable.ArrayBuffer.empty[(Long, Long)]
}

/** One finished call into a layer: its name, wall time and Spark counters. */
final case class SpanCall(layer: String, id: String, startMs: Long, endMs: Long, wallNs: Long, c: SpanCounters) {

  def wallMs: Double = wallNs / 1e6

  /** Wall time during which none of this call's Spark jobs ran: the serial,
    * driver-side part of the call.
    */
  def driverMs: Double = {
    val busy = c.jobIntervals
      .map { case (s, e) => (math.max(s, startMs), math.min(e, endMs)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var reach = Long.MinValue
    busy.foreach { case (s, e) =>
      val from = math.max(s, reach)
      if (e > from) covered += e - from
      reach = math.max(reach, e)
    }
    math.max(0.0, wallMs - covered)
  }
}

/** Attributes Spark job, stage and task events to the span whose id the
  * driver thread carried (as a local property) when the job was submitted.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val jobSpan = new ConcurrentHashMap[Int, String]()
  private val jobStartMs = new ConcurrentHashMap[Int, Long]()
  private val endedJobs = ConcurrentHashMap.newKeySet[Int]()
  val counters = new ConcurrentHashMap[String, SpanCounters]()

  private def of(span: String): SpanCounters = counters.computeIfAbsent(span, _ => new SpanCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
    span.foreach { s =>
      jobSpan.put(e.jobId, s)
      jobStartMs.put(e.jobId, e.time)
      val c = of(s)
      c.synchronized { c.jobs += 1 }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    Option(jobSpan.get(e.jobId)).foreach { s =>
      val c = of(s)
      c.synchronized { c.jobIntervals += ((jobStartMs.get(e.jobId), e.time)) }
    }
    endedJobs.add(e.jobId)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .foreach(s => stageSpan.put(e.stageInfo.stageId, s))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = stageSpan.get(e.stageId)
    val m = e.taskMetrics
    if (span != null && m != null) {
      val c = of(span)
      c.synchronized {
        c.tasks += 1
        c.taskMs += m.executorRunTime
        c.taskRunMs += m.executorRunTime
        c.gcMs += m.jvmGCTime
        c.shuffleWriteB += m.shuffleWriteMetrics.bytesWritten
        c.shuffleReadB += m.shuffleReadMetrics.totalBytesRead
        c.resultB += m.resultSize
      }
    }
  }

  def hasEnded(jobIds: Iterable[Int]): Boolean = jobIds.forall(endedJobs.contains)
}

/** Records spans around the bench's own calls into each layer. Spans are
  * flat and sequential (the driver makes one call at a time), so the enclosing
  * span of a Spark job is the one whose id was set when the job started.
  */
final class Tracer(sc: SparkContext, group: String) {
  private val listener = new SpanListener
  private val calls = mutable.ArrayBuffer.empty[SpanCall]
  private var seq = 0

  sc.addSparkListener(listener)
  sc.setJobGroup(group, "table2bench traced run")

  def span[T](layer: String)(f: => T): T = {
    seq += 1
    val id = s"$group/$layer#$seq"
    sc.setLocalProperty(Tracer.SpanKey, id)
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    try f
    finally {
      val wall = System.nanoTime() - t0
      val endMs = System.currentTimeMillis()
      sc.setLocalProperty(Tracer.SpanKey, null)
      calls += SpanCall(layer, id, startMs, endMs, wall, null)
    }
  }

  /** Waits until the listener has seen the end of every job this tracer's
    * group ran, detaches it, and returns the calls with their counters.
    */
  def finish(): Seq[SpanCall] = {
    val jobIds = sc.statusTracker.getJobIdsForGroup(group).toSeq
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!listener.hasEnded(jobIds) && System.nanoTime() < deadline) Thread.sleep(5)
    if (!listener.hasEnded(jobIds)) throw new IllegalStateException(s"listener missed job ends in $group")
    sc.removeSparkListener(listener)
    sc.clearJobGroup()
    calls.toSeq.map(c => c.copy(c = Option(listener.counters.get(c.id)).getOrElse(new SpanCounters)))
  }
}

object Tracer {
  val SpanKey = "table2bench.span"

  /** Span metrics of one layer, summed over its calls; `full` adds the task,
    * GC, shuffle and result counters to wall, driver, job and task time.
    */
  def layerMetrics(layer: String, calls: Seq[SpanCall], full: Boolean): Seq[(String, Double, String)] = {
    val cs = calls.filter(_.layer == layer)
    val taskRun = cs.flatMap(_.c.taskRunMs).sorted
    def sum(f: SpanCall => Double): Double = cs.map(f).sum
    val basic = Seq(
      (s"$layer.wall_ms", sum(_.wallMs), "ms"),
      (s"$layer.driver_ms", sum(_.driverMs), "ms"),
      (s"$layer.jobs", sum(_.c.jobs.toDouble), "count"),
      (s"$layer.task_ms", sum(_.c.taskMs.toDouble), "ms"),
    )
    if (!full) basic
    else basic ++ Seq(
      (s"$layer.tasks", sum(_.c.tasks.toDouble), "count"),
      (s"$layer.task_max_ms", if (taskRun.isEmpty) 0.0 else taskRun.last.toDouble, "ms"),
      (s"$layer.task_p50_ms", Stats.median(taskRun.map(_.toDouble)), "ms"),
      (s"$layer.gc_ms", sum(_.c.gcMs.toDouble), "ms"),
      (s"$layer.shuffle_write_b", sum(_.c.shuffleWriteB.toDouble), "B"),
      (s"$layer.shuffle_read_b", sum(_.c.shuffleReadB.toDouble), "B"),
      (s"$layer.result_b", sum(_.c.resultB.toDouble), "B"),
    )
  }
}

object Stats {
  /** Median of the values; 0 for none. */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val m = s.length / 2
      if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }
}
