package repro.core

/** Dense-vector kernels used by every clustering pass.
  *
  * Data vectors are `Array[Float]` (half the footprint of doubles at the
  * 100-960 dimensions the paper evaluates); accumulators (cluster composite
  * vectors, centroids) are `Array[Double]` so repeated adds/subtracts do not
  * drift. All loops are `while`-style so the JIT emits straight-line FP code.
  */
object VecOps {

  /** Squared L2 distance between two float vectors. */
  def sqDistFF(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = (a(i) - b(i)).toDouble; s += t * t; i += 1 }
    s
  }

  /** Squared L2 distance between a float vector and a double vector. */
  def sqDistFD(a: Array[Float], c: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = a(i) - c(i); s += t * t; i += 1 }
    s
  }

  /** Dot product of a float vector with a double vector. */
  def dotFD(a: Array[Float], c: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * c(i); i += 1 }
    s
  }

  /** `sqDistFD(v, c1) − sqDistFD(v, c2)` for the float vector v stored,
    * widened to double, at `buf(off until off + c1.length)`. Widening is
    * exact, and the two sums run in one loop, each in the order `sqDistFD`
    * adds, so the result is bit-identical to the two calls while the
    * additions of one sum do not wait for the other's. On finite sums
    * x − y ≤ 0 exactly when x ≤ y, so the sign decides which centre is
    * nearer as the two calls would.
    */
  def sqDistDiffDD(buf: Array[Double], off: Int, c1: Array[Double], c2: Array[Double]): Double = {
    var s1 = 0.0; var s2 = 0.0; var i = 0
    while (i < c1.length) {
      val a = buf(off + i)
      val t1 = a - c1(i); val t2 = a - c2(i)
      s1 += t1 * t1; s2 += t2 * t2
      i += 1
    }
    s1 - s2
  }

  /** `out(at) = sqDistDiffDD(buf, off, c1, c2)` and `out(at + 1) =
    * sqDistDiffDD(buf, off + c1.length, c1, c2)`: the two rows that follow
    * each other in `buf`, summed in one loop by four accumulators, each in
    * `sqDistDiffDD`'s order, so both are bit-identical to it.
    */
  def sqDistDiffDD2(buf: Array[Double], off: Int, c1: Array[Double], c2: Array[Double], out: Array[Double], at: Int): Unit = {
    val d = c1.length
    var s1 = 0.0; var s2 = 0.0; var s3 = 0.0; var s4 = 0.0; var i = 0
    while (i < d) {
      val a = buf(off + i); val b = buf(off + d + i)
      val u = c1(i); val v = c2(i)
      val t1 = a - u; val t2 = a - v; val t3 = b - u; val t4 = b - v
      s1 += t1 * t1; s2 += t2 * t2; s3 += t3 * t3; s4 += t4 * t4
      i += 1
    }
    out(at) = s1 - s2; out(at + 1) = s3 - s4
  }

  /** `out(at) = dotFD(a, c1)` and `out(at + 1) = dotFD(a, c2)`, summed in
    * one loop, each in `dotFD`'s order, so both are bit-identical to it.
    */
  def dotFD2(a: Array[Float], c1: Array[Double], c2: Array[Double], out: Array[Double], at: Int): Unit = {
    var s1 = 0.0; var s2 = 0.0; var i = 0
    while (i < a.length) {
      val x = a(i)
      s1 += x * c1(i); s2 += x * c2(i)
      i += 1
    }
    out(at) = s1; out(at + 1) = s2
  }

  /** Dot product of two float vectors. */
  def dotFF(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i); i += 1 }
    s
  }

  /** Squared L2 norm of a float vector. */
  def normSqF(a: Array[Float]): Double = dotFF(a, a)

  /** Squared L2 norm of a double vector. */
  def normSqD(a: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * a(i); i += 1 }
    s
  }

  /** acc += x (in place). */
  def addTo(acc: Array[Double], x: Array[Float]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }

  /** acc += the vector at `buf(off until off + acc.length)` (in place). */
  def addRowTo(acc: Array[Double], buf: Array[Double], off: Int): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += buf(off + i); i += 1 }
  }

  /** acc -= x (in place). */
  def subFrom(acc: Array[Double], x: Array[Float]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) -= x(i); i += 1 }
  }

  /** acc += b (in place, double-double). */
  def addToDD(acc: Array[Double], b: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += b(i); i += 1 }
  }

  /** Overwrite dst with x (float source). */
  def setFrom(dst: Array[Double], x: Array[Float]): Unit = {
    var i = 0
    while (i < dst.length) { dst(i) = x(i); i += 1 }
  }

  /** comp / cnt as a fresh double vector. */
  def centroidOf(comp: Array[Double], cnt: Long): Array[Double] = {
    val out = new Array[Double](comp.length)
    var i = 0
    while (i < comp.length) { out(i) = comp(i) / cnt; i += 1 }
    out
  }
}
