package repro.core

/** In-memory (single-task) kernel of the Alg. 3 graph builder.
  *
  * `GraphBuilder.build` runs it once per GK-means cluster, inside the tasks
  * of one Spark job, on the cluster's members in id order; each cluster holds
  * ~ξ points, so the exhaustive join is local.
  */
object LocalKMeans {

  /** Exhaustive in-cluster k-NN lists (paper Alg. 3 lines 8-14, one cluster):
    * for every member, the `κ` closest other members with distances.
    * `ids` are global point ids aligned with `vecs`.
    */
  def inClusterTopK(
      ids: Array[Long],
      vecs: Array[Array[Float]],
      kappa: Int,
  ): Array[NbrChunk] = {
    val m = ids.length
    if (m <= 1) return Array.empty
    val keep = math.min(kappa, m - 1)
    // Pairwise distances once; rows pick their top-`keep`.
    val dist = Array.ofDim[Double](m, m)
    var i = 0
    while (i < m) {
      var j = i + 1
      while (j < m) {
        val dd = VecOps.sqDistFF(vecs(i), vecs(j))
        dist(i)(j) = dd; dist(j)(i) = dd
        j += 1
      }
      i += 1
    }
    val out = new Array[NbrChunk](m)
    i = 0
    while (i < m) {
      val order = Array.range(0, m).filter(_ != i).sortBy(j => (dist(i)(j), ids(j))).take(keep)
      out(i) = NbrChunk(ids(i), order.map(j => ids(j).toInt), order.map(j => dist(i)(j)))
      i += 1
    }
    out
  }
}
