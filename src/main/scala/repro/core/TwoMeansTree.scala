package repro.core

import org.apache.spark.sql.Dataset
import scala.collection.mutable
import scala.util.Random

/** Two-means tree initialisation (paper Alg. 1): pop the largest cluster,
  * 2-means it, and cut it at the margin median, until k clusters exist —
  * `O(d·n·log k)`.
  *
  * The tree runs on the driver, over the vectors in id order: `twoMeansTree`
  * takes them as collected by `Points.collectVecs`, and `cluster` collects
  * them itself. `GraphBuilder.build` collects once and runs every round's
  * tree from that copy. The collect adds no new scale limit: the driver
  * already holds the n×κ k-NN graph (12·κ = 240 B per point at κ = 20), and
  * the vectors take 4·d bytes per point (256 B at d = 64), the same order.
  * Because the input is ordered by id, the labels depend only on the data
  * and the seed, not on how the points are partitioned.
  */
object TwoMeansTree {

  /** 2-means rounds per bisection, before the median cut. */
  private val BisectIters = 3

  def cluster(points: Dataset[Point], n: Int, k: Int, d: Int, seed: Long): Array[Int] = {
    require(k >= 1 && k <= n, s"need 1 <= k=$k <= n=$n")
    twoMeansTree(Points.collectVecs(points, n, d), k, seed)
  }

  /** Bisect the points at `idx` into two equal halves (paper Alg. 1 steps
    * 8-9): a few 2-means rounds to orient the split, then the equal-size
    * adjustment — sort by margin `d(x,c₁) − d(x,c₂)` and cut at the median.
    *
    * Returns (left indices, right indices); sizes differ by at most 1.
    */
  private[core] def bisectEqual(vecs: Array[Array[Float]], idx: Array[Int], rng: Random): (Array[Int], Array[Int]) = {
    require(idx.length >= 2, "cannot bisect fewer than 2 points")
    val d = vecs(idx(0)).length
    // Two distinct random seeds.
    val s1 = idx(rng.nextInt(idx.length))
    var s2 = idx(rng.nextInt(idx.length))
    var guard = 0
    while (s2 == s1 && guard < 16) { s2 = idx(rng.nextInt(idx.length)); guard += 1 }
    var c1 = vecs(s1).map(_.toDouble)
    var c2 = vecs(s2).map(_.toDouble)

    var t = 0
    while (t < BisectIters) {
      val a1 = new Array[Double](d); val a2 = new Array[Double](d)
      var n1 = 0L; var n2 = 0L
      var i = 0
      while (i < idx.length) {
        val v = vecs(idx(i))
        if (VecOps.sqDistFD(v, c1) <= VecOps.sqDistFD(v, c2)) { VecOps.addTo(a1, v); n1 += 1 }
        else { VecOps.addTo(a2, v); n2 += 1 }
        i += 1
      }
      if (n1 > 0) c1 = VecOps.centroidOf(a1, n1)
      if (n2 > 0) c2 = VecOps.centroidOf(a2, n2)
      t += 1
    }

    // Equal-size adjustment: margin sort, cut in the middle.
    val margins = idx.map { j =>
      val v = vecs(j)
      (VecOps.sqDistFD(v, c1) - VecOps.sqDistFD(v, c2), j)
    }
    val sorted = margins.sortBy(m => (m._1, m._2))
    val half = idx.length / 2 + (idx.length % 2) // left gets the extra on odd sizes
    (sorted.take(half).map(_._2), sorted.drop(half).map(_._2))
  }

  /** The tree itself: repeatedly pop the largest cluster and bisect it with
    * the equal-size adjustment until `leaves` clusters exist. Returns a label
    * in `[0, leaves)` per input position.
    */
  def twoMeansTree(vecs: Array[Array[Float]], leaves: Int, seed: Long): Array[Int] = {
    require(leaves >= 1 && leaves <= vecs.length, s"need 1 <= leaves=$leaves <= n=${vecs.length}")
    val rng = new Random(seed)
    val labels = new Array[Int](vecs.length)
    if (leaves == 1) return labels

    // Max-heap of clusters by size; each cluster is its member indices.
    implicit val bySize: Ordering[Array[Int]] = Ordering.by((a: Array[Int]) => a.length)
    val pq = mutable.PriorityQueue[Array[Int]](Array.range(0, vecs.length))
    while (pq.size < leaves) {
      val big = pq.dequeue()
      val (l, r) = bisectEqual(vecs, big, rng)
      pq.enqueue(l); pq.enqueue(r)
    }
    var lab = 0
    pq.dequeueAll[Array[Int]].foreach { cluster =>
      cluster.foreach(i => labels(i) = lab)
      lab += 1
    }
    labels
  }
}
