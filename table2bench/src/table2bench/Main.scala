package table2bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{Point, Points}
import repro.eval.Metrics
import repro.exp.Experiments
import repro.knn.Probe
import scala.collection.mutable

/** Table-2 benchmark: one workload per run.
  *
  * {{{
  * Main --workload gk|closure --seed S --seconds T --trace 0|1
  *      [--commit C] [--source-digest H] [--record FILE]
  * }}}
  *
  * Set-up (data, cache, probes) is repeated and its median reported. One
  * untimed fit of the workload on the same points warms the JIT. Timed fits
  * then repeat until `T` seconds have passed and at least [[MinFits]] have
  * run. `--trace 0` prints the end-to-end metrics; `--trace 1` decomposes
  * every fit into spans around the public calls it makes and prints the
  * per-layer metrics. Every fit is checked. The last stdout line is the JSON
  * result; a run that cannot produce one exits non-zero without it.
  */
object Main {

  final case class Args(
      workload: Workload, seed: Long, seconds: Double, trace: Boolean,
      commit: String, sourceDigest: String, record: Option[String],
  )

  val SetupReps = 3
  val ShufflePartitions = 64

  /** Timed fits per untraced run at the least, so `cpu_s` is a median. A
    * traced run decomposes every fit it times, so one is enough there.
    */
  val MinFits = 3

  /** JVM age in seconds after which a traced gk run skips the shape check. */
  val ShapeCheckBeforeS = 110

  /** Fit layers: each gets the full span metric set on every workload (0 where
    * the workload does not call it).
    */
  val FitLayers = Seq(
    "knn.GraphBuilder.build", "knn.NNDescent.build", "core.TwoMeansTree.cluster",
    "core.ClusterState.fromLabels", "core.Engine.epoch", "baselines.ClosureKMeans.buildBuckets",
    "core.Clustering.randomSeedState", "eval.Metrics.sumSqNorm")
  val SetupLayers = Seq("core.Points.cached", "knn.Probe.sample")

  def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, "arguments come in --name value pairs")
    val m = argv.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"unexpected argument $k"); k.drop(2) -> v
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "commit", "source-digest", "record")
    require(m.keySet.subsetOf(known), s"unknown arguments: ${(m.keySet -- known).mkString(", ")}")
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val a = Args(w, need("seed").toLong, need("seconds").toDouble, trace,
      m.getOrElse("commit", "unknown"), m.getOrElse("source-digest", "unknown"), m.get("record"))
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"table2bench: ${e.getMessage}")
          2
        case e: Exception =>
          e.printStackTrace()
          1
      }
    System.exit(code)
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def spanOpt[T](tr: Option[Tracer], layer: String)(f: => T): T = tr match {
    case Some(t) => t.span(layer)(f)
    case None    => f
  }

  def run(a: Args): Int = {
    // One Spark task thread fewer than the CPUs (at most 4) leaves a CPU to
    // the thread that runs the fit, the JIT and GC, which are busy during a
    // fit; with a task thread on every one of 4 CPUs, fits took more CPU and
    // spread more.
    val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors) - 1)
    val tSession = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"table2bench-${a.workload.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.ui.retainedJobs", "100000")
      .config("spark.ui.retainedStages", "100000")
      .getOrCreate()
    val sessionS = secondsSince(tSession)
    try measure(spark, a, cores, sessionS)
    finally spark.stop()
  }

  private def measure(spark: SparkSession, a: Args, cores: Int, sessionS: Double): Int = {
    val sc = spark.sparkContext
    val w = a.workload
    val p = w.params
    val report = new Report

    // Set-up, repeated: data generation, the cached points and probe ground truth.
    val setupS = mutable.ArrayBuffer.empty[Double]
    val setupCpuS = mutable.ArrayBuffer.empty[Double]
    var points: Dataset[Point] = null
    var probe: Probe = null
    var setupCalls: Seq[SpanCall] = Nil
    for (rep <- 0 until SetupReps) {
      if (points != null) points.unpersist(blocking = true)
      val tr = if (a.trace && rep == SetupReps - 1) Some(new Tracer(sc, "setup")) else None
      val c0 = Workload.workCpuNs()
      val t0 = System.nanoTime()
      points = spanOpt(tr, "core.Points.cached")(Points.cached(Experiments.dataset(spark, "vlad", p.n, a.seed)))
      probe = spanOpt(tr, "knn.Probe.sample")(Probe.sample(points, p.n, p.probes, a.seed))
      setupS += secondsSince(t0)
      setupCpuS += (Workload.workCpuNs() - c0) / 1e9
      tr.foreach(t => setupCalls = t.finish())
    }
    val cacheMb = sc.getRDDStorageInfo.map(_.memSize).sum / 1e6

    // JIT warm-up: one untimed fit on the same points. The JIT keeps
    // compiling for several fits after it, so the timed fits still speed up
    // from one to the next; their median is taken.
    val warmS = w.fit(points, p, probe).wallMs / 1e3

    val config =
      s"""{"workload":"${w.name}","seed":${a.seed},"seconds":${a.seconds},"trace":${if (a.trace) 1 else 0},""" +
        s""""commit":"${a.commit}","source_digest":"${a.sourceDigest}","cores":$cores,""" +
        s""""partitions":${points.rdd.getNumPartitions},"shuffle_partitions":$ShufflePartitions,""" +
        s""""heap_mb":${Runtime.getRuntime.maxMemory / (1 << 20)},"spark":"${spark.version}",""" +
        s""""java":"${System.getProperty("java.version")}","params":${p.toJson},""" +
        s""""session_s":$sessionS,"setup_rep_s":${setupS.mkString("[", ",", "]")},""" +
        s""""setup_rep_cpu_s":${setupCpuS.mkString("[", ",", "]")},""" +
        s""""warmup_s":$warmS}"""
    Console.err.println(s"table2bench config $config")

    // Timed fits until the run's seconds are used and enough have run.
    val minFits = if (a.trace) 1 else MinFits
    val fits = mutable.ArrayBuffer.empty[Fit]
    val layerRuns = mutable.ArrayBuffer.empty[Seq[(String, Double, String)]]
    val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
    var tries = 0
    do {
      tries += 1
      report.attempt {
        val f = w.fit(points, p, probe)
        Checks.fit(report, f, p, points, fits.headOption)
        fits += f
        if (a.trace) layerRuns += tracedRun(sc, w, points, p, probe, f, report)
      }
    } while (tries < minFits || System.nanoTime() < deadline)

    // Table-2 shape: GK-means reaches a lower E than closure k-means. It
    // takes a second row, so it runs with the traced runs only, and only
    // while the run has time left before the runner's timeout.
    if (a.trace && w == Gk && fits.nonEmpty) {
      val upS = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
      if (upS < ShapeCheckBeforeS) report.attempt {
        val cl = Closure.fit(points, Closure.params, probe)
        report.check("gk_le_closure", fits.head.row.distortion <= cl.row.distortion,
          s"gk E=${fits.head.row.distortion} closure E=${cl.row.distortion}")
      }
      else report.note(s"check gk_le_closure skipped: the run is $upS s old")
    }

    if (fits.isEmpty || (a.trace && layerRuns.isEmpty)) {
      Console.err.println("table2bench: no fit completed")
      return 1
    }
    if (!a.trace) {
      // CPU seconds, JIT compilation left out (see Workload.workCpuNs): on a
      // host whose CPUs are shared, wall time also counts the time the host
      // gave this machine's CPUs to others.
      report.metric("setup_s", Stats.median(setupCpuS.toSeq), "s")
      report.metric("cpu_s", Stats.median(fits.map(_.cpuMs / 1e3).toSeq), "s")
      report.metric("distortion", fits.head.row.distortion, "E")
      report.metric("cache_mb", cacheMb, "MB")
    } else {
      SetupLayers.foreach(l => Tracer.layerMetrics(l, setupCalls, full = false).foreach((report.metric _).tupled))
      layerRuns.head.indices.foreach { i =>
        val (k, _, unit) = layerRuns.head(i)
        report.metric(k, Stats.median(layerRuns.map(_(i)._2).toSeq), unit)
      }
      kernelMetrics(report, p)
    }
    report.print()
    a.record.foreach(path => report.write(path, config, fits.toSeq))
    0
  }

  /** One traced decomposition of the fit just timed: per-layer metrics of
    * this repetition, and the check that it reproduces the fit exactly.
    */
  private def tracedRun(
      sc: org.apache.spark.SparkContext, w: Workload, points: Dataset[Point], p: Params,
      probe: Probe, f: Fit, report: Report,
  ): Seq[(String, Double, String)] = {
    val tr = new Tracer(sc, s"trace-${System.nanoTime()}")
    val epochs = mutable.ArrayBuffer.empty[EpochCall]
    val t0 = System.nanoTime()
    val (e, r) = w.traced(points, p, probe, tr, epochs)
    val tracedMs = (System.nanoTime() - t0) / 1e6
    val fitCalls = tr.finish()
    val probes = new Tracer(sc, s"probes-${System.nanoTime()}")
    w.layerProbes(points, p, probe, probes)
    val calls = fitCalls ++ probes.finish()
    report.check("traced_reproduces", e == f.row.distortion && r.equals(f.row.recall),
      s"traced E=$e recall=$r, untraced E=${f.row.distortion} recall=${f.row.recall}")
    val coverage = fitCalls.map(_.wallMs).sum / tracedMs
    report.check("trace_coverage", coverage >= 0.95, s"spans cover $coverage of the traced wall time")

    val ep = calls.filter(_.layer == "core.Engine.epoch").map(_.wallMs)
    val evals = epochs.map(_.evals).sum.toDouble
    FitLayers.flatMap(l => Tracer.layerMetrics(l, calls, full = true)) ++ Seq(
      ("core.Engine.epoch.count", epochs.length.toDouble, "count"),
      ("core.Engine.epoch.wall_ms_p50", Stats.median(ep), "ms"),
      ("core.Engine.epoch.wall_ms_max", if (ep.isEmpty) 0.0 else ep.max, "ms"),
      ("core.Engine.epoch.evals", evals, "count"),
      ("core.Engine.epoch.evals_per_point", evals / (math.max(1, epochs.length).toDouble * p.n), "count"),
      ("core.Engine.epoch.moves", epochs.map(_.moves).sum.toDouble, "count"),
      ("core.Engine.epoch.bcast_b_computed", epochs.map(_.bcastBytes).sum.toDouble, "B"),
      ("knn.recall", if (f.row.recall.isNaN) 0.0 else f.row.recall, "fraction"),
      // The row's Table-2 Init and Iter columns.
      ("exp.init_s", f.row.initSec, "s"),
      ("exp.iter_s", f.row.iterSec, "s"),
      // Bench wall time and CPU time of the row call.
      ("exp.total_s", f.wallMs / 1e3, "s"),
      ("exp.cpu_s", f.cpuMs / 1e3, "s"),
      // Bench wall time of the row call minus the row's own Init + Iter.
      ("exp.untimed_ms", f.wallMs - (f.row.initSec + f.row.iterSec) * 1e3, "ms"),
      ("trace.overhead", (tracedMs - f.wallMs) / f.wallMs, "ratio"),
      ("trace.coverage", coverage, "ratio"),
    )
  }

  private def kernelMetrics(report: Report, p: Params): Unit = {
    Kernels.vecOps().foreach { k =>
      report.metric(s"core.VecOps.${k.kernel}.ns_per_dim.d${k.d}", k.nsPerDim, "ns/dim")
      report.note(s"kernel core.VecOps.${k.kernel} d=${k.d} flops_per_call=${k.flopsPerCall} " +
        s"bytes_per_call=${k.bytesPerCall} (computed from vector sizes)")
    }
    report.metric("core.LocalKMeans.inClusterTopK.ns_per_pair", Kernels.inClusterTopK(p.xi, p.kappa, p.d), "ns/pair")
    report.metric("knn.KnnGraph.merge.ns_per_call", Kernels.graphMerge(p.n, p.kappa), "ns/call")
  }
}

/** Metrics, check results and operation counts of one run. */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val checks = mutable.LinkedHashMap.empty[String, (Int, Int, String)]
  private val notes = mutable.ArrayBuffer.empty[String]
  private var attempted = 0
  private var failed = 0

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)
  def note(line: String): Unit = notes += line

  private var opFailed = false

  /** Records one check; the failing detail of the first failure is kept. */
  def check(name: String, ok: Boolean, detail: => String): Unit = {
    val (pass, fail, d) = checks.getOrElse(name, (0, 0, ""))
    checks(name) = if (ok) (pass + 1, fail, d) else (pass, fail + 1, if (fail == 0) detail else d)
    if (!ok) opFailed = true
  }

  /** One operation: it fails when it throws or when any check inside fails. */
  def attempt(body: => Unit): Unit = {
    attempted += 1
    opFailed = false
    try body
    catch {
      case e: Exception =>
        opFailed = true
        checks("no_exception") = (0, checks.get("no_exception").map(_._2).getOrElse(0) + 1, e.toString)
        e.printStackTrace()
    }
    if (opFailed) failed += 1
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  def resultJson: String = {
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }.mkString(", ")
    s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }

  def print(): Unit = {
    metrics.foreach { case (k, (v, u)) => println(s"metric $k ${num(v)} $u") }
    notes.foreach(println)
    checks.foreach { case (k, (pass, fail, d)) =>
      println(s"check $k ${if (fail == 0) "ok" else "FAIL"} ${pass}/${pass + fail}${if (fail == 0) "" else s" $d"}")
    }
    println(resultJson)
  }

  def write(path: String, config: String, fits: Seq[Fit]): Unit = {
    val rows = fits.map { f =>
      s"""{"method":"${f.row.method}","init_s":${f.row.initSec},"iter_s":${f.row.iterSec},""" +
        s""""total_s":${f.wallMs / 1e3},"cpu_s":${f.cpuMs / 1e3},"distortion":${f.row.distortion},"recall":${num(f.row.recall)},""" +
        s""""evals":${f.fit.distEvals},"moves":${f.fit.moves}}"""
    }.mkString("[", ",", "]")
    val cs = checks.map { case (k, (p, f, _)) => s""""$k":{"pass":$p,"fail":$f}""" }.mkString("{", ",", "}")
    val notesJson = notes.map(n => "\"" + n.replace("\"", "'") + "\"").mkString("[", ",", "]")
    val json = s"""{"config":$config,"fits":$rows,"checks":$cs,"notes":$notesJson,"result":$resultJson}"""
    val file = new java.io.File(path)
    Option(file.getParentFile).foreach(_.mkdirs())
    java.nio.file.Files.write(file.toPath, (json + "\n").getBytes("UTF-8"))
  }
}

/** Correctness gate applied to every timed fit. */
object Checks {
  def fit(report: Report, f: Fit, p: Params, points: Dataset[Point], first: Option[Fit]): Unit = {
    val direct = Metrics.distortionDirect(points, f.fit.labels, f.fit.state)
    report.check("distortion_direct", math.abs(f.row.distortion - direct) <= 1e-9 * math.abs(direct),
      s"reported E=${f.row.distortion} direct E=$direct")
    report.check("labels_in_range",
      f.fit.labels.length == p.n && f.fit.labels.forall(l => l >= 0 && l < p.k), "a label is outside [0, k)")
    f.graph.foreach { g =>
      val bad = (0 until p.n).find { i =>
        val ids = g.ids(i); val ds = g.dists(i)
        ids.length != p.kappa || ids.exists(j => j < 0 || j >= p.n || j == i) ||
          ids.distinct.length != ids.length || (1 until ds.length).exists(j => ds(j) < ds(j - 1))
      }
      report.check("graph_rows", bad.isEmpty, s"row ${bad.getOrElse(-1)} is unsorted, repeats an id or holds itself")
    }
    first.foreach { f0 =>
      report.check("repeatable", f.row.distortion == f0.row.distortion && f.row.recall.equals(f0.row.recall),
        s"E=${f.row.distortion} recall=${f.row.recall} differ from the run's first fit " +
          s"E=${f0.row.distortion} recall=${f0.row.recall}")
    }
  }
}
