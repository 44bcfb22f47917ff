// Components of the nine Figure 6 applications, the Rodinia kernels, the
// LibSolve RK4 solver and sgemm. Raw-pointer operands, and each <param>_count
// parameter gives the composition tool an operand extent.
void bfs(const unsigned int* rowptr, const unsigned int* colidx,
         unsigned int* out_depth, unsigned int nnodes, unsigned int nedges,
         unsigned int source, unsigned int rowptr_count,
         unsigned int colidx_count, unsigned int out_depth_count);
void cfd(const unsigned int* neighbors, float* state, float* out_scratch,
         unsigned int ncells, unsigned int steps, float damping,
         unsigned int neighbors_count, unsigned int state_count,
         unsigned int out_scratch_count);
void hotspot(const float* power, float* temp, float* out_scratch,
             unsigned int rows, unsigned int cols, unsigned int steps,
             unsigned int power_count, unsigned int temp_count,
             unsigned int out_scratch_count);
void lud(float* a, unsigned int n, unsigned int a_count);
void nw(const int* seq1, const int* seq2, int* score, unsigned int n,
        int penalty, unsigned int seq1_count, unsigned int seq2_count,
        unsigned int score_count);
void particlefilter_frame(float* particles, const float* observation,
                          unsigned int nparticles, unsigned int frame,
                          unsigned int particles_count,
                          unsigned int observation_count);
void pathfinder(const int* grid, int* result, unsigned int rows,
                unsigned int cols, unsigned int grid_count,
                unsigned int result_count);
void sgemm(const float* a, const float* b, float* c, unsigned int m,
           unsigned int n, unsigned int k, float alpha, float beta,
           unsigned int a_count, unsigned int b_count, unsigned int c_count);
void ode_init(float* out_y, unsigned int n);
void ode_copy(const float* src, float* out_dst, unsigned int n);
void ode_rhs(const float* jacobian, const float* y, float* out_k, unsigned int n,
             unsigned int jacobian_count);
void ode_stage2(const float* y, const float* k1, float* out_t, unsigned int n,
                float h, float c1);
void ode_stage3(const float* y, const float* k1, const float* k2, float* out_t,
                unsigned int n, float h, float c1, float c2);
void ode_stage4(const float* y, const float* k1, const float* k2, const float* k3,
                float* out_t, unsigned int n, float h, float c1, float c2, float c3);
void ode_combine(float* y, const float* k1, const float* k2, const float* k3,
                 const float* k4, unsigned int n, float h, float c1, float c2,
                 float c3, float c4);
void ode_error(const float* k1, const float* k2, const float* k3, const float* k4,
               float* out_err, unsigned int n, float h, float c1, float c2,
               float c3, float c4, unsigned int out_err_count);
void ode_scale(float* x, unsigned int n, float c1);
