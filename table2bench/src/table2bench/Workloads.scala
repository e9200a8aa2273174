package table2bench

import org.apache.spark.sql.Dataset
import repro.baselines.ClosureKMeans
import repro.core._
import repro.eval.Metrics
import repro.exp.{ExpRow, Experiments}
import repro.knn.{GraphBuilder, KnnGraph, NNDescent, Probe}

/** Every parameter of one Table-2 row, passed explicitly to the row function
  * and recorded with each run.
  */
final case class Params(
    n: Int,
    d: Int,
    k: Int,
    iters: Int,
    kappa: Int,
    xi: Int,
    tau: Int,
    nndIters: Int,
    rho: Double,
    closureM: Int,
    closureBucket: Int,
    probes: Int,
    seed: Long,
) {
  def toJson: String =
    s"""{"n":$n,"d":$d,"k":$k,"iters":$iters,"kappa":$kappa,"xi":$xi,"tau":$tau,""" +
      s""""nnd_iters":$nndIters,"rho":$rho,"closure_m":$closureM,"closure_bucket":$closureBucket,""" +
      s""""probes":$probes,"algo_seed":$seed}"""
}

/** One fit through the row function `Experiments.*Run`, as a user calls it,
  * with its wall time and its CPU time as [[Workload.workCpuNs]] counts it.
  */
final case class Fit(row: ExpRow, fit: FitResult, graph: Option[KnnGraph], wallMs: Double, cpuMs: Double)

/** Per-call record of one `Engine.epoch` in a traced run. */
final case class EpochCall(evals: Long, moves: Long, bcastBytes: Long)

/** A Table-2 row. `fit` calls the row function; `traced` makes the same
  * computation one level down, from the public functions the row function
  * calls, with a span around each call.
  */
sealed abstract class Workload(val name: String) {

  /** Table-2 parameters at bench scale: n/k = 10 as in the paper, and τ = 3
    * Alg. 3 rounds instead of 10, so that one run times several fits.
    */
  val params: Params = Params(
    n = 12000, d = 64, k = 1200, iters = 20, kappa = 20, xi = 50, tau = 3,
    nndIters = 6, rho = 0.3, closureM = 3, closureBucket = 50, probes = 1000, seed = 42)

  def fit(points: Dataset[Point], p: Params, probe: Probe): Fit

  /** Final E and graph recall (NaN for rows without a graph). */
  def traced(points: Dataset[Point], p: Params, probe: Probe, tr: Tracer, epochs: collection.mutable.Buffer[EpochCall]): (Double, Double)

  /** Layers measured on this workload's data outside its own fit. */
  def layerProbes(points: Dataset[Point], p: Params, probe: Probe, tr: Tracer): Unit = ()
}

object Workload {
  val all: Seq[Workload] = Seq(Gk, Closure)
  def byName(s: String): Option[Workload] = all.find(_.name == s)

  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of this JVM's threads other than its JIT compiler threads, in
    * ns. Compilation goes on in the background for minutes after start, and
    * its share of one fit varies from run to run, so it is left out. The JVM
    * runs with a fixed set of compiler threads, so none exits with its time.
    */
  def workCpuNs(): Long = os.getProcessCpuTime - compilerCpuNs()

  /** CPU time of the JIT compiler threads, from /proc/self/task (Linux). */
  private def compilerCpuNs(): Long = {
    val tasks = Option(new java.io.File("/proc/self/task").listFiles())
      .getOrElse(throw new IllegalStateException("/proc/self/task is not readable"))
    tasks.iterator.map { t =>
      try {
        val st = new String(java.nio.file.Files.readAllBytes(new java.io.File(t, "stat").toPath))
        val comm = st.substring(st.indexOf('(') + 1, st.lastIndexOf(')'))
        // Fields after the command: state is 0, utime 11 and stime 12, in 1/100 s.
        val f = st.substring(st.lastIndexOf(')') + 2).split(' ')
        if (comm.contains("CompilerThre")) (f(11).toLong + f(12).toLong) * 10000000L else 0L
      } catch { case _: java.nio.file.NoSuchFileException => 0L } // a thread that just ended
    }.sum
  }

  private[table2bench] def timedFit(f: => (ExpRow, FitResult, Option[KnnGraph])): Fit = {
    val c0 = Workload.workCpuNs()
    val t0 = System.nanoTime()
    val (row, fit, graph) = f
    val wall = (System.nanoTime() - t0) / 1e6
    Fit(row, fit, graph, wall, (Workload.workCpuNs() - c0) / 1e6)
  }

  /** `Clustering.iterate` from public calls: Σ‖x‖² pass, then epochs where a
    * re-aggregation follows every epoch that moved a point, which is what
    * `Engine.epoch(recomputeState = true)` does inside one call.
    */
  private[table2bench] def epochLoop(
      points: Dataset[Point], p: Params, labels0: Array[Int], state0: ClusterState,
      iters: Int, cand: CandidateGen, rule: Engine.Rule, tr: Tracer,
      epochs: collection.mutable.Buffer[EpochCall],
  ): Double = {
    val sumSq = tr.span("eval.Metrics.sumSqNorm")(Metrics.sumSqNorm(points))
    var labels = labels0
    var state = state0
    var t = 0
    var converged = false
    while (t < iters && !converged) {
      val (l, s, moved) = tracedEpoch(points, labels, state, cand, rule, tr, epochs)
      labels = l; state = s
      converged = moved == 0
      t += 1
    }
    state.distortion(sumSq, p.n)
  }

  private[table2bench] def tracedEpoch(
      points: Dataset[Point], labels: Array[Int], state: ClusterState,
      cand: CandidateGen, rule: Engine.Rule, tr: Tracer,
      epochs: collection.mutable.Buffer[EpochCall],
  ): (Array[Int], ClusterState, Long) = {
    val r = tr.span("core.Engine.epoch")(Engine.epoch(points, labels, state, cand, rule, recomputeState = false))
    // What the epoch broadcasts: the n labels and the k×d composites + counts.
    epochs += EpochCall(r.distEvals, r.moved, 4L * labels.length + state.k * (8L * state.d + 8L))
    val next =
      if (r.moved > 0) tr.span("core.ClusterState.fromLabels")(
        ClusterState.fromLabels(points, r.labels, state.k, state.d, Some(state)))
      else state
    (r.labels, next, r.moved)
  }

  /** Alg. 2 on a given graph, as `Clustering.gkMeans` runs it. */
  private[table2bench] def gkFit(
      points: Dataset[Point], p: Params, graph: KnnGraph, tr: Tracer,
      epochs: collection.mutable.Buffer[EpochCall],
  ): Double = {
    val labels0 = tr.span("core.TwoMeansTree.cluster")(TwoMeansTree.cluster(points, p.n, p.k, p.d, p.seed))
    val state0 = tr.span("core.ClusterState.fromLabels")(ClusterState.fromLabels(points, labels0, p.k, p.d))
    val bcG = points.sparkSession.sparkContext.broadcast(graph.ids)
    try epochLoop(points, p, labels0, state0, p.iters, new GraphNbrGen(bcG, p.kappa), Engine.BoostRule, tr, epochs)
    finally bcG.destroy()
  }
}

case object Gk extends Workload("gk") {
  def fit(points: Dataset[Point], p: Params, probe: Probe): Fit = Workload.timedFit {
    val (row, fit, build) = Experiments.gkRun(
      points, p.n, p.d, p.k, p.kappa, p.xi, p.tau, p.iters, p.seed, Some(probe))
    (row, fit, Some(build.graph))
  }

  def traced(points: Dataset[Point], p: Params, probe: Probe, tr: Tracer, epochs: collection.mutable.Buffer[EpochCall]): (Double, Double) = {
    val build = tr.span("knn.GraphBuilder.build")(
      GraphBuilder.build(points, p.n, p.d, p.kappa, p.xi, p.tau, p.seed, Some(probe)))
    (Workload.gkFit(points, p, build.graph, tr, epochs), build.roundRecalls.last)
  }
}

case object Closure extends Workload("closure") {
  def fit(points: Dataset[Point], p: Params, probe: Probe): Fit = Workload.timedFit {
    val (row, fit) = Experiments.closureRun(points, p.n, p.d, p.k, p.iters, p.seed, p.closureM, p.closureBucket)
    (row, fit, None)
  }

  /** `ClosureKMeans.fit` one level down, seeding included. */
  def traced(points: Dataset[Point], p: Params, probe: Probe, tr: Tracer, epochs: collection.mutable.Buffer[EpochCall]): (Double, Double) = {
    val sc = points.sparkSession.sparkContext
    val (memberOf, buckets) = tr.span("baselines.ClosureKMeans.buildBuckets")(
      ClosureKMeans.buildBuckets(points, p.n, p.d, p.closureM, p.closureBucket, p.seed))
    // The seed derivation ClosureKMeans.fit uses for its k seed points.
    val seedIds = Clustering.sampleIds(p.n, p.k, p.seed ^ 0xC105)
    val seedVecs = Points.fetchVecs(points, seedIds.toSeq)
    val seedState = ClusterState.fromCentroids(seedIds.map(id => seedVecs(id).map(_.toDouble)))
    val seedOf = Array.fill(p.n)(-1)
    seedIds.zipWithIndex.foreach { case (id, c) => seedOf(id.toInt) = c }
    val bcM = sc.broadcast(memberOf)
    val bcB = sc.broadcast(buckets)
    val bcS = sc.broadcast(seedOf)
    val (labels0, state0, _) =
      try Workload.tracedEpoch(points, Array.tabulate(p.n)(i => i % p.k), seedState,
        new SeedClosureGen(bcM, bcB, bcS, p.k), Engine.NearestRule, tr, epochs)
      finally bcS.destroy()
    val e =
      try Workload.epochLoop(points, p, labels0, state0, p.iters, new ClosureGen(bcM, bcB), Engine.NearestRule, tr, epochs)
      finally { bcM.destroy(); bcB.destroy() }
    (e, Double.NaN)
  }

  /** Layers of rows that are not benchmark workloads, because their runs do
    * not fit the benchmark's time budget: the KGraph+GK-means row's graph
    * build (NN-Descent with the gk row's κ) and the BKM row's seeding.
    */
  override def layerProbes(points: Dataset[Point], p: Params, probe: Probe, tr: Tracer): Unit = {
    tr.span("knn.NNDescent.build")(
      NNDescent.build(points, p.n, p.d, p.kappa, p.nndIters, p.rho, p.seed, probe = Some(probe)))
    tr.span("core.Clustering.randomSeedState")(Clustering.randomSeedState(points, p.n, p.k, p.d, p.seed))
  }
}
