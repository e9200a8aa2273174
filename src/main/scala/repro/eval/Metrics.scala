package repro.eval

import org.apache.spark.sql.Dataset
import repro.core.{ClusterState, Point, Points, VecOps}

/** Partial brute-force scan result: best (dist, id) per probe sample. */
final case class ProbeChunk(bestIds: Array[Long], bestDists: Array[Double])

/** Evaluation measures from the paper's protocol (§5.1): average distortion
  * (Eqn. 4 — mean squared sample-to-centroid distance) and top-1 recall of
  * the k-NN graph against brute-force ground truth over probe samples.
  */
object Metrics {

  /** Σ‖x‖² over the dataset — one pass, reused for the distortion identity. */
  def sumSqNorm(points: Dataset[Point]): Double = {
    Points.pass(points, "eval.Metrics.sumSqNorm") { it =>
      var s = 0.0
      it.foreach(p => s += VecOps.normSqF(p.vec))
      s
    }.sum
  }

  /** Average distortion computed directly (one pass of ‖x − C_label(x)‖²).
    * The O(k·d) identity `state.distortion(sumSq, n)` must agree with this —
    * tested — so callers use the cheap form in iteration loops.
    */
  def distortionDirect(points: Dataset[Point], labels: Array[Int], state: ClusterState): Double = {
    val sc = points.sparkSession.sparkContext
    val bcL = sc.broadcast(labels)
    val bcS = sc.broadcast(state)
    val sum =
      try {
        Points.pass(points, "eval.Metrics.distortionDirect", labels.length, state.d) { it =>
          val lab = bcL.value; val st = bcS.value
          var s = 0.0
          it.foreach(p => s += st.sqDistToCentroid(p.vec, VecOps.normSqF(p.vec), lab(p.id.toInt)))
          s
        }.sum
      } finally { bcL.destroy(); bcS.destroy() }
    sum / labels.length
  }

  /** Brute-force top-1 neighbour (id and distance) of each probe id, scanning
    * the full dataset once — the ground truth for graph recall (§5.1; the
    * paper likewise estimates VLAD10M recall from 100 random probes).
    */
  def bruteTop1(points: Dataset[Point], probeIds: Array[Long]): (Array[Long], Array[Double]) = {
    val sc = points.sparkSession.sparkContext
    val probeVecs = Points.fetchVecs(points, probeIds.toSeq)
    val probes = probeIds.map(probeVecs)
    val bcIds = sc.broadcast(probeIds)
    val bcVecs = sc.broadcast(probes)
    val chunks =
      try {
        Points.pass(points, "eval.Metrics.bruteTop1") { it =>
          val ids = bcIds.value; val vs = bcVecs.value
          val bi = Array.fill(ids.length)(-1L)
          val bd = Array.fill(ids.length)(Double.MaxValue)
          it.foreach { p =>
            var q = 0
            while (q < ids.length) {
              if (p.id != ids(q)) {
                val dd = VecOps.sqDistFF(p.vec, vs(q))
                if (dd < bd(q) || (dd == bd(q) && p.id < bi(q))) { bd(q) = dd; bi(q) = p.id }
              }
              q += 1
            }
          }
          ProbeChunk(bi, bd)
        }
      } finally { bcIds.destroy(); bcVecs.destroy() }
    val bi = Array.fill(probeIds.length)(-1L)
    val bd = Array.fill(probeIds.length)(Double.MaxValue)
    chunks.foreach { ch =>
      var q = 0
      while (q < probeIds.length) {
        if (ch.bestDists(q) < bd(q) || (ch.bestDists(q) == bd(q) && ch.bestIds(q) < bi(q))) {
          bd(q) = ch.bestDists(q); bi(q) = ch.bestIds(q)
        }
        q += 1
      }
    }
    (bi, bd)
  }

  /** Top-1 recall of graph rows against brute-force ground truth: a probe is
    * a hit when its first graph neighbour is at the true top-1 distance
    * (id match or exact distance tie).
    */
  def recallTop1(
      graphIds: Array[Array[Int]],
      graphDists: Array[Array[Double]],
      probeIds: Array[Long],
      trueIds: Array[Long],
      trueDists: Array[Double],
  ): Double = {
    var hit = 0
    var q = 0
    while (q < probeIds.length) {
      val row = graphIds(probeIds(q).toInt)
      if (row.nonEmpty) {
        val g = row(0)
        val gd = graphDists(probeIds(q).toInt)(0)
        if (g.toLong == trueIds(q) || gd <= trueDists(q) + 1e-9) hit += 1
      }
      q += 1
    }
    hit.toDouble / probeIds.length
  }
}
