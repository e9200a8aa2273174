package repro.knn

import repro.core.VecOps
import scala.util.Random

/** Approximate k-NN graph `G[n][κ]`: per node, up to κ neighbour ids sorted
  * by ascending distance, with the distances kept alongside so candidate
  * merges (Alg. 3 line 11, NN-Descent updates) are O(κ) insertions.
  *
  * Rows from `random` start with `Double.MaxValue` distances, so any real
  * candidate displaces them — the paper's random initial graph G⁰.
  */
final class KnnGraph(
    val ids: Array[Array[Int]],
    val dists: Array[Array[Double]],
) extends Serializable {
  def n: Int = ids.length
  def kappa: Int = if (n == 0) 0 else ids(0).length

  /** Insert candidate (j, dist) into row i if closer than the current worst
    * and not already present; keeps the row sorted. Returns true if inserted.
    */
  def merge(i: Int, j: Int, dist: Double): Boolean = {
    if (i == j) return false
    val row = ids(i); val dd = dists(i)
    val len = row.length
    if (dist >= dd(len - 1)) return false
    var p = 0
    while (p < len && dd(p) <= dist) {
      if (row(p) == j) return false
      p += 1
    }
    // Check duplicates beyond the insertion point too.
    var q = p
    while (q < len) { if (row(q) == j) { shiftOut(i, q, p, j, dist); return true }; q += 1 }
    var m = len - 1
    while (m > p) { row(m) = row(m - 1); dd(m) = dd(m - 1); m -= 1 }
    row(p) = j; dd(p) = dist
    true
  }

  /** Re-insert an id already present at `at` into earlier position `p`
    * (distance improved — can happen when approximate rounds re-measure).
    */
  private def shiftOut(i: Int, at: Int, p: Int, j: Int, dist: Double): Unit = {
    val row = ids(i); val dd = dists(i)
    var m = at
    while (m > p) { row(m) = row(m - 1); dd(m) = dd(m - 1); m -= 1 }
    row(p) = j; dd(p) = dist
  }
}

object KnnGraph {

  /** Random initial graph: κ distinct non-self neighbours per node, unknown
    * (MaxValue) distances.
    */
  def random(n: Int, kappa: Int, seed: Long): KnnGraph = {
    require(kappa >= 1 && kappa < n, s"need 1 <= kappa=$kappa < n=$n")
    val rng = new Random(seed)
    val ids = Array.ofDim[Int](n, kappa)
    val dists = Array.fill(n, kappa)(Double.MaxValue)
    var i = 0
    while (i < n) {
      val seen = new java.util.HashSet[Int]()
      var j = 0
      while (j < kappa) {
        var c = rng.nextInt(n)
        while (c == i || seen.contains(c)) c = rng.nextInt(n)
        seen.add(c)
        ids(i)(j) = c
        j += 1
      }
      i += 1
    }
    new KnnGraph(ids, dists)
  }

  /** Exact graph by brute force over in-memory vectors — test-scale only. */
  def bruteForce(vecs: Array[Array[Float]], kappa: Int): KnnGraph = {
    val n = vecs.length
    val keep = math.min(kappa, n - 1)
    val ids = new Array[Array[Int]](n)
    val dists = new Array[Array[Double]](n)
    var i = 0
    while (i < n) {
      val order = Array.range(0, n)
        .filter(_ != i)
        .map(j => (VecOps.sqDistFF(vecs(i), vecs(j)), j))
        .sortBy(x => (x._1, x._2))
        .take(keep)
      ids(i) = order.map(_._2)
      dists(i) = order.map(_._1)
      i += 1
    }
    new KnnGraph(ids, dists)
  }
}
