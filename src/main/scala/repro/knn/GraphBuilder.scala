package repro.knn

import org.apache.spark.sql.Dataset
import repro.core._
import repro.eval.Metrics

/** Recall probe: ids with brute-force top-1 ground truth (id + distance). */
final case class Probe(probeIds: Array[Long], trueIds: Array[Long], trueDists: Array[Double])

object Probe {
  def sample(points: Dataset[Point], n: Int, probes: Int, seed: Long): Probe = {
    val ids = Clustering.sampleIds(n, math.min(probes, n), seed)
    val (ti, td) = Metrics.bruteTop1(points, ids)
    Probe(ids, ti, td)
  }
}

/** Result of a graph-construction run, with per-round recall when probed. */
final case class BuildResult(graph: KnnGraph, buildMs: Long, roundRecalls: Vector[Double])

/** k-NN graph construction with fast k-means (paper Alg. 3).
  *
  * Starting from a random graph G⁰, each of the τ rounds (the intertwined
  * evolving process of Fig. 3):
  *
  *   1. runs GK-means (2M-tree init + one boost epoch, `t = 1` per the
  *      paper's §4.5) into `k₀ = ⌊n/ξ⌋` clusters using the current graph, and
  *   2. exhaustively compares points inside each cluster
  *      (`LocalKMeans.inClusterTopK` inside `flatMapGroups` — clusters have
  *      ~ξ members so each group is a tiny local task), merging the closer
  *      pairs into the graph.
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
    val sp = points.sparkSession
    import sp.implicits._
    val k0 = math.max(2, n / xi)
    val kap = math.min(kappa, n - 1) // the join closure reads this, not `graph.kappa`, so its tasks do not carry the graph
    val graph = KnnGraph.random(n, kap, seed)
    val recalls = Vector.newBuilder[Double]
    val t0 = System.nanoTime()
    var t = 0
    while (t < tau) {
      val fit = Clustering.gkMeans(
        points, n, k0, d, graph.ids, kap, iters = 1,
        seed = seed ^ (1000003L * (t + 1)), rule = Engine.BoostRule, track = false)
      val bcL = sp.sparkContext.broadcast(fit.labels)
      val chunks =
        try {
          points
            .groupByKey(p => bcL.value(p.id.toInt))
            .flatMapGroups { (_, it) =>
              val members = it.toArray.sortBy(_.id)
              LocalKMeans.inClusterTopK(members.map(_.id), members.map(_.vec), kap).iterator
            }
            .collect()
        } finally bcL.destroy()
      chunks.foreach { ch =>
        var j = 0
        while (j < ch.nbrs.length) { graph.merge(ch.id.toInt, ch.nbrs(j), ch.dists(j)); j += 1 }
      }
      probe.foreach { pr =>
        recalls += Metrics.recallTop1(graph.ids, graph.dists, pr.probeIds, pr.trueIds, pr.trueDists)
      }
      t += 1
    }
    BuildResult(graph, (System.nanoTime() - t0) / 1000000, recalls.result())
  }
}
