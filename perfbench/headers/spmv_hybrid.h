// The CSR sparse matrix-vector product component of Figure 5, one call
// per chunk of rows. Each <param>_count parameter gives the composition
// tool an operand extent.
void spmv(const float* values, const unsigned int* colidx,
          const unsigned int* rowptr, const float* x, float* out_y,
          unsigned int nrows, unsigned int nnz, unsigned int rowptr_count,
          unsigned int x_count, unsigned int out_y_count, float regularity);
