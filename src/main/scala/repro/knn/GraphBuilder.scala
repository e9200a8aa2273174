package repro.knn

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics

/** Recall probe: ids with brute-force top-1 ground truth (id + distance). */
final case class Probe(probeIds: Array[Long], trueIds: Array[Long], trueDists: Array[Double])

object Probe {
  def sample(points: Dataset[Point], n: Int, probes: Int, seed: Long): Probe = {
    require(probes >= 1, s"need probes=$probes >= 1")
    val ids = Clustering.sampleIds(n, math.min(probes, n), seed)
    val (ti, td) = Metrics.bruteTop1(points, ids)
    Probe(ids, ti, td)
  }
}

/** Where one Alg. 3 round's time went, in ms, and the sizes of its
  * clusters: the two-means tree, the state of its labels, the Boost epoch,
  * the in-cluster join (member lists and the Spark job) and the driver merge.
  */
final case class RoundRecord(
    treeMs: Double,
    stateMs: Double,
    epochMs: Double,
    joinMs: Double,
    mergeMs: Double,
    maxGroup: Int,
    medianGroup: Int,
)

/** Result of a graph-construction run: the graph, per-round recall when
  * probed, the vectors in id order that the build collected (a GK-means fit
  * on this graph runs its init tree on them instead of collecting again) and,
  * for Alg. 3, one record per round.
  */
final case class BuildResult(
    graph: KnnGraph,
    buildMs: Long,
    roundRecalls: Vector[Double],
    vecs: Array[Array[Float]],
    rounds: Vector[RoundRecord],
)

/** One task's in-cluster k-NN rows in four flat arrays: row i is point
  * `ids(i)`'s `lens(i)` candidates, which follow row i − 1's in `nbrs` and
  * `dists`.
  */
private final case class NbrRows(ids: Array[Int], lens: Array[Int], nbrs: Array[Int], dists: Array[Double])

/** k-NN graph construction with fast k-means (paper Alg. 3).
  *
  * The vectors are collected in id order once per build and broadcast once.
  * Starting from a random graph G⁰, each of the τ rounds (the intertwined
  * evolving process of Fig. 3):
  *
  *   1. runs GK-means with `t = 1` (paper §4.5) into `k₀ = ⌊n/ξ⌋` clusters
  *      using the current graph: the two-means tree on the collected
  *      vectors, then one boost epoch over the graph neighbours' clusters;
  *   2. exhaustively compares points inside each cluster: the driver lists
  *      each cluster's members in id order, and one Spark job runs
  *      `LocalKMeans.inClusterTopK` per cluster (~ξ members, a tiny local
  *      task) on the broadcast vectors; each task ships its rows as flat
  *      arrays, and the closer pairs merge into the graph.
  *
  * Graph quality and clustering quality co-evolve; larger τ → higher recall
  * at proportional cost (paper Fig. 2).
  */
object GraphBuilder {

  def build(
      points: Dataset[Point],
      n: Int,
      d: Int,
      kappa: Int,
      xi: Int = 50,
      tau: Int = 10,
      seed: Long = 7,
      probe: Option[Probe] = None,
  ): BuildResult = {
    require(xi >= 2, s"xi=$xi too small")
    require(tau >= 1, s"need tau=$tau >= 1")
    val sc = points.sparkSession.sparkContext
    val k0 = math.max(2, n / xi)
    require(kappa < n, s"need kappa=$kappa < n=$n")
    val graph = KnnGraph.random(n, kappa, seed)
    val recalls = Vector.newBuilder[Double]
    val rounds = Vector.newBuilder[RoundRecord]
    def ms(from: Long, to: Long): Double = (to - from) / 1e6
    val t0 = System.nanoTime()
    val vecs = Points.collectVecs(points, n, d)
    val bcV = sc.broadcast(vecs)
    try {
      var t = 0
      while (t < tau) {
        val tTree = System.nanoTime()
        val labels0 = TwoMeansTree.twoMeansTree(vecs, k0, seed ^ (1000003L * (t + 1)))
        val tState = System.nanoTime()
        val state0 = ClusterState.fromLabels(points, labels0, k0, d)
        val tEpoch = System.nanoTime()
        val bcG = sc.broadcast(graph.ids)
        val labels =
          try Engine.epoch(points, labels0, state0, new GraphNbrGen(bcG, kappa), Engine.BoostRule, recomputeState = false).labels
          finally bcG.destroy()
        val tJoin = System.nanoTime()
        val builders = Array.fill(k0)(Array.newBuilder[Int])
        var i = 0
        while (i < n) { builders(labels(i)) += i; i += 1 }
        val members = builders.map(_.result())
        // The closure reads `kappa`, not `graph.kappa`, so its tasks do not carry the graph.
        val parts = Points.runJob(sc.parallelize(members.toSeq, sc.defaultParallelism), "knn.GraphBuilder.build") { it =>
          val ids = Array.newBuilder[Int]; val lens = Array.newBuilder[Int]
          val nbrs = Array.newBuilder[Int]; val dists = Array.newBuilder[Double]
          it.foreach { m =>
            LocalKMeans.inClusterTopK(m.map(_.toLong), m.map(bcV.value(_)), kappa).foreach { ch =>
              ids += ch.id.toInt; lens += ch.nbrs.length; nbrs ++= ch.nbrs; dists ++= ch.dists
            }
          }
          NbrRows(ids.result(), lens.result(), nbrs.result(), dists.result())
        }
        val tMerge = System.nanoTime()
        // A row arrives in (distance, id) order, so once a candidate is no
        // closer than the graph row's worst entry, `merge` rejects the rest.
        parts.foreach { rs =>
          var at = 0
          var i = 0
          while (i < rs.ids.length) {
            val row = rs.ids(i); val dd = graph.dists(row)
            val end = at + rs.lens(i)
            var j = at
            while (j < end && rs.dists(j) < dd(dd.length - 1)) { graph.merge(row, rs.nbrs(j), rs.dists(j)); j += 1 }
            at = end
            i += 1
          }
        }
        val tEnd = System.nanoTime()
        val sizes = members.map(_.length).sorted
        rounds += RoundRecord(ms(tTree, tState), ms(tState, tEpoch), ms(tEpoch, tJoin), ms(tJoin, tMerge),
          ms(tMerge, tEnd), sizes(k0 - 1), sizes(k0 / 2))
        probe.foreach { pr =>
          recalls += Metrics.recallTop1(graph.ids, graph.dists, pr.probeIds, pr.trueIds, pr.trueDists)
        }
        t += 1
      }
    } finally bcV.destroy()
    BuildResult(graph, (System.nanoTime() - t0) / 1000000, recalls.result(), vecs, rounds.result())
  }
}
