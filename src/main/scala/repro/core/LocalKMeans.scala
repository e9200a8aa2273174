package repro.core

import repro.knn.KnnGraph

/** In-memory (single-task) kernel of the Alg. 3 graph builder.
  *
  * `GraphBuilder.build` runs it once per GK-means cluster, inside the tasks
  * of one Spark job, on the cluster's members in id order; each cluster holds
  * ~ξ points, so the exhaustive join is local.
  */
object LocalKMeans {

  /** Exhaustive in-cluster k-NN lists (paper Alg. 3 lines 8-14, one cluster):
    * for every member, the `κ` closest other members with distances, in
    * (distance, id) order. `ids` are global point ids aligned with `vecs`, in
    * ascending order, so that `KnnGraph.bruteForce`'s tie order on local
    * indices is the tie order on global ids.
    */
  def inClusterTopK(
      ids: Array[Long],
      vecs: Array[Array[Float]],
      kappa: Int,
  ): Array[NbrChunk] = {
    if (ids.length <= 1) return Array.empty
    val g = KnnGraph.bruteForce(vecs, kappa)
    Array.tabulate(ids.length)(i => NbrChunk(ids(i), g.ids(i).map(j => ids(j).toInt), g.dists(i)))
  }
}
