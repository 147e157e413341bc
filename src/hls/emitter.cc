#include "hls/emitter.hh"

#include <cstdarg>
#include <cstdio>

#include "common/logging.hh"

namespace flcnn {

namespace {

/** Tiny appending formatter for code generation. */
class Code
{
  public:
    void
    line(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        va_list ap;
        va_start(ap, fmt);
        char buf[640];
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        out += buf;
        out += '\n';
    }

    /** An empty line (a zero-length format would trip -Wformat). */
    void blank() { out += '\n'; }

    std::string out;
};

struct EmitLayer
{
    int layerIdx = 0;   //!< absolute network index
    LayerSpec spec;
    Shape in, out;
    int tm = 1, tn = 1;          //!< conv unroll factors
    int64_t wOff = 0, bOff = 0;  //!< offsets into the weight arena
};

void
emitConvBody(Code &c, const EmitLayer &el, int li)
{
    const int k = el.spec.kernel, s = el.spec.stride;
    const int npg = el.in.c / el.spec.groups;
    const int mpg = el.spec.outChannels / el.spec.groups;
    c.line("        for (int ox = 0; ox < %d; ox++) {", el.out.w);
    c.line("#pragma HLS PIPELINE II=1");
    c.line("            for (int m = 0; m < %d; m++) {",
           el.spec.outChannels);
    c.line("#pragma HLS UNROLL factor=%d  // Tm", el.tm);
    c.line("                const int nb = (m / %d) * %d;", mpg, npg);
    c.line("                float acc = g_weights[%lldL + m];",
           static_cast<long long>(el.bOff));
    c.line("                for (int n = 0; n < %d; n++) {", npg);
    c.line("#pragma HLS UNROLL factor=%d  // Tn", el.tn);
    c.line("                    for (int i = 0; i < %d; i++) {", k);
    c.line("                        const int ry = (oy * %d + i) %% %d;",
           s, k);
    c.line("                        const float *wr = &g_weights[%lldL"
           " + ((static_cast<long>(m) * %d + n) * %d + i) * %d];",
           static_cast<long long>(el.wOff), npg, k, k);
    c.line("                        const float *rr = &ring_l%d[((nb + "
           "n) * %d + ry) * %d + ox * %d];",
           li, k, el.in.w, s);
    c.line("                        for (int j = 0; j < %d; j++)", k);
    c.line("                            acc += wr[j] * rr[j];");
    c.line("                    }");
    c.line("                }");
    c.line("                rowbuf_l%d[m * %d + ox] = acc;", li,
           el.out.w);
    c.line("            }");
    c.line("        }");
}

void
emitPoolBody(Code &c, const EmitLayer &el, int li)
{
    const int k = el.spec.kernel, s = el.spec.stride;
    const bool is_max = el.spec.poolMode == PoolMode::Max;
    c.line("        for (int ox = 0; ox < %d; ox++) {", el.out.w);
    c.line("#pragma HLS PIPELINE II=1");
    c.line("            for (int ch = 0; ch < %d; ch++) {", el.out.c);
    if (is_max) {
        c.line("                float acc = ring_l%d[(ch * %d + (oy * "
               "%d) %% %d) * %d + ox * %d];",
               li, k, s, k, el.in.w, s);
    } else {
        c.line("                float acc = 0.0f;");
    }
    c.line("                for (int i = 0; i < %d; i++) {", k);
    c.line("                    const int ry = (oy * %d + i) %% %d;", s,
           k);
    c.line("                    for (int j = 0; j < %d; j++) {", k);
    c.line("                        const float v = ring_l%d[(ch * %d + "
           "ry) * %d + ox * %d + j];",
           li, k, el.in.w, s);
    if (is_max) {
        c.line("                        acc = v > acc ? v : acc;");
    } else {
        c.line("                        acc += v;");
    }
    c.line("                    }");
    c.line("                }");
    if (!is_max)
        c.line("                acc /= %d.0f;", k * k);
    c.line("                rowbuf_l%d[ch * %d + ox] = acc;", li,
           el.out.w);
    c.line("            }");
    c.line("        }");
}

} // namespace

std::vector<float>
packWeightsForHls(const Network &net, const NetworkWeights &weights,
                  int first_layer, int last_layer)
{
    std::vector<float> arena;
    for (int i = first_layer; i <= last_layer; i++) {
        if (net.layer(i).kind != LayerKind::Conv)
            continue;
        const FilterBank &fb = weights.bank(net.convSlot(i));
        for (int m = 0; m < fb.numFilters(); m++)
            for (int n = 0; n < fb.numChannels(); n++)
                for (int ki = 0; ki < fb.kernel(); ki++)
                    for (int kj = 0; kj < fb.kernel(); kj++)
                        arena.push_back(fb.w(m, n, ki, kj));
        for (int m = 0; m < fb.numFilters(); m++)
            arena.push_back(fb.bias(m));
    }
    return arena;
}

std::string
emitFusedHls(const Network &net, int first_layer, int last_layer,
             const std::vector<LayerUnroll> &unrolls,
             const HlsEmitOptions &opt)
{
    FLCNN_ASSERT(first_layer >= 0 && last_layer < net.numLayers() &&
                     first_layer <= last_layer,
                 "fusion range out of bounds");

    std::vector<EmitLayer> layers;
    int64_t w_total = 0;
    for (int i = first_layer; i <= last_layer; i++) {
        EmitLayer el;
        el.layerIdx = i;
        el.spec = net.layer(i);
        FLCNN_ASSERT(el.spec.fusable(), "range has a non-fusable layer");
        FLCNN_ASSERT(el.spec.kind != LayerKind::LRN,
                     "LRN emission is not supported yet");
        el.in = net.inShape(i);
        el.out = net.outShape(i);
        if (el.spec.kind == LayerKind::Conv) {
            for (const LayerUnroll &u : unrolls) {
                if (u.layerIdx == i) {
                    el.tm = u.tm;
                    el.tn = u.tn;
                }
            }
            int64_t w_elems = static_cast<int64_t>(el.spec.outChannels) *
                              (el.in.c / el.spec.groups) *
                              el.spec.kernel * el.spec.kernel;
            el.wOff = w_total;
            el.bOff = w_total + w_elems;
            w_total += w_elems + el.spec.outChannels;
        }
        layers.push_back(el);
    }

    const Shape &gin = net.inShape(first_layer);
    const Shape &gout = net.outShape(last_layer);
    const int nl = static_cast<int>(layers.size());

    Code c;
    c.line("// Generated by flcnn's HLS template emitter (Section IV of");
    c.line("// \"Fused-Layer CNN Accelerators\", MICRO 2016).");
    c.line("// Fused range: layers %d..%d of network '%s'.", first_layer,
           last_layer, net.name().c_str());
    c.line("//");
    c.line("// Intermediate feature maps never leave the chip: every");
    c.line("// windowed layer holds a K-row line buffer (the streaming");
    c.line("// form of the paper's BL/BT reuse buffers). All dimensions");
    c.line("// are hard-coded, as the paper's specialized accelerator");
    c.line("// requires. HLS pragmas are no-ops under a host compiler.");
    c.blank();
    c.line("namespace flcnn_hls {");
    c.blank();
    c.line("constexpr int kInC = %d, kInH = %d, kInW = %d;", gin.c, gin.h,
           gin.w);
    c.line("constexpr int kOutC = %d, kOutH = %d, kOutW = %d;", gout.c,
           gout.h, gout.w);
    c.line("constexpr long kWeightWords = %lldL;",
           static_cast<long long>(w_total));
    c.blank();
    c.line("float g_weights[kWeightWords > 0 ? kWeightWords : 1];");
    c.line("float g_out[kOutC * kOutH * kOutW];");
    c.blank();

    for (int li = 0; li < nl; li++) {
        const EmitLayer &el = layers[static_cast<size_t>(li)];
        c.line("// layer %d: %s (in %s -> out %s)", li,
               el.spec.str().c_str(), el.in.str().c_str(),
               el.out.str().c_str());
        if (el.spec.windowed()) {
            c.line("float ring_l%d[%d * %d * %d];", li, el.in.c,
                   el.spec.kernel, el.in.w);
            c.line("int rows_in_l%d = 0;", li);
            c.line("int next_out_l%d = 0;", li);
        }
        c.line("float rowbuf_l%d[%d * %d];", li, el.out.c, el.out.w);
    }
    c.blank();

    for (int li = 0; li < nl; li++)
        c.line("void push_l%d(int y, const float *row);", li);
    c.blank();

    // Output sink.
    c.line("inline void");
    c.line("push_out(int y, const float *row)");
    c.line("{");
    c.line("    for (int ch = 0; ch < kOutC; ch++)");
    c.line("        for (int x = 0; x < kOutW; x++)");
    c.line("            g_out[(ch * kOutH + y) * kOutW + x] = "
           "row[ch * kOutW + x];");
    c.line("}");
    c.blank();

    for (int li = 0; li < nl; li++) {
        const EmitLayer &el = layers[static_cast<size_t>(li)];
        std::string next = li + 1 < nl
                               ? "push_l" + std::to_string(li + 1)
                               : std::string("push_out");

        c.line("void");
        c.line("push_l%d(int y, const float *row)", li);
        c.line("{");
        switch (el.spec.kind) {
          case LayerKind::Conv:
          case LayerKind::Pool: {
            const int k = el.spec.kernel, s = el.spec.stride;
            c.line("    {");
            c.line("        const int slot = y %% %d;", k);
            c.line("        for (int ch = 0; ch < %d; ch++)", el.in.c);
            c.line("            for (int x = 0; x < %d; x++)", el.in.w);
            c.line("                ring_l%d[(ch * %d + slot) * %d + x] "
                   "= row[ch * %d + x];",
                   li, k, el.in.w, el.in.w);
            c.line("    }");
            c.line("    rows_in_l%d = y + 1;", li);
            c.line("    while (next_out_l%d < %d &&", li, el.out.h);
            c.line("           next_out_l%d * %d + %d <= rows_in_l%d) {",
                   li, s, k, li);
            c.line("        const int oy = next_out_l%d;", li);
            if (el.spec.kind == LayerKind::Conv)
                emitConvBody(c, el, li);
            else
                emitPoolBody(c, el, li);
            c.line("        next_out_l%d++;", li);
            c.line("        %s(oy, rowbuf_l%d);", next.c_str(), li);
            c.line("    }");
            break;
          }
          case LayerKind::Pad: {
            const int p = el.spec.pad;
            c.line("    if (y == 0) {");
            c.line("        for (int zy = 0; zy < %d; zy++) {", p);
            c.line("            for (int e = 0; e < %d * %d; e++)",
                   el.out.c, el.out.w);
            c.line("                rowbuf_l%d[e] = 0.0f;", li);
            c.line("            %s(zy, rowbuf_l%d);", next.c_str(), li);
            c.line("        }");
            c.line("    }");
            c.line("    for (int e = 0; e < %d * %d; e++)", el.out.c,
                   el.out.w);
            c.line("        rowbuf_l%d[e] = 0.0f;", li);
            c.line("    for (int ch = 0; ch < %d; ch++)", el.in.c);
            c.line("        for (int x = 0; x < %d; x++)", el.in.w);
            c.line("            rowbuf_l%d[ch * %d + x + %d] = "
                   "row[ch * %d + x];",
                   li, el.out.w, p, el.in.w);
            c.line("    %s(y + %d, rowbuf_l%d);", next.c_str(), p, li);
            c.line("    if (y == %d) {", el.in.h - 1);
            c.line("        for (int zy = %d; zy < %d; zy++) {",
                   el.in.h + p, el.in.h + 2 * p);
            c.line("            for (int e = 0; e < %d * %d; e++)",
                   el.out.c, el.out.w);
            c.line("                rowbuf_l%d[e] = 0.0f;", li);
            c.line("            %s(zy, rowbuf_l%d);", next.c_str(), li);
            c.line("        }");
            c.line("    }");
            break;
          }
          case LayerKind::ReLU: {
            c.line("    for (int e = 0; e < %d * %d; e++) {", el.out.c,
                   el.out.w);
            c.line("#pragma HLS PIPELINE II=1");
            c.line("        const float v = row[e];");
            c.line("        rowbuf_l%d[e] = v > 0.0f ? v : 0.0f;", li);
            c.line("    }");
            c.line("    %s(y, rowbuf_l%d);", next.c_str(), li);
            break;
          }
          default:
            panic("unsupported layer kind in HLS emission");
        }
        c.line("}");
        c.blank();
    }

    // Reset + top.
    c.line("inline void");
    c.line("reset()");
    c.line("{");
    for (int li = 0; li < nl; li++) {
        if (layers[static_cast<size_t>(li)].spec.windowed()) {
            c.line("    rows_in_l%d = 0;", li);
            c.line("    next_out_l%d = 0;", li);
        }
    }
    c.line("}");
    c.blank();
    c.line("// Top-level: streams a CHW image through the fused stack");
    c.line("// (Listing 3's per-pyramid loop, at row granularity).");
    c.line("void");
    c.line("%s(const float *image_chw)", opt.topName.c_str());
    c.line("{");
    c.line("#pragma HLS DATAFLOW");
    c.line("    reset();");
    c.line("    float row[kInC * kInW];");
    c.line("    for (int y = 0; y < kInH; y++) {");
    c.line("        for (int ch = 0; ch < kInC; ch++)");
    c.line("            for (int x = 0; x < kInW; x++)");
    c.line("                row[ch * kInW + x] =");
    c.line("                    image_chw[(ch * kInH + y) * kInW + x];");
    c.line("        push_l0(y, row);");
    c.line("    }");
    c.line("}");
    c.blank();
    c.line("} // namespace flcnn_hls");

    if (opt.testbench) {
        c.blank();
        c.line("#ifdef FLCNN_HLS_TESTBENCH");
        c.line("#include <cstdio>");
        c.line("#include <cstdlib>");
        c.blank();
        c.line("static long");
        c.line("read_floats(const char *path, float *dst, long n)");
        c.line("{");
        c.line("    std::FILE *f = std::fopen(path, \"rb\");");
        c.line("    if (!f) { std::perror(path); std::exit(2); }");
        c.line("    long got = static_cast<long>(");
        c.line("        std::fread(dst, sizeof(float), "
               "static_cast<size_t>(n), f));");
        c.line("    std::fclose(f);");
        c.line("    return got;");
        c.line("}");
        c.blank();
        c.line("int");
        c.line("main(int argc, char **argv)");
        c.line("{");
        c.line("    using namespace flcnn_hls;");
        c.line("    const char *in_path = argc > 1 ? argv[1] : "
               "\"input.bin\";");
        c.line("    const char *w_path = argc > 2 ? argv[2] : "
               "\"weights.bin\";");
        c.line("    const char *out_path = argc > 3 ? argv[3] : "
               "\"output.bin\";");
        c.line("    static float image[kInC * kInH * kInW];");
        c.line("    if (read_floats(in_path, image, kInC * kInH * kInW) "
               "!=");
        c.line("        kInC * kInH * kInW) {");
        c.line("        std::fprintf(stderr, \"short input\\n\");");
        c.line("        return 2;");
        c.line("    }");
        c.line("    if (kWeightWords > 0 &&");
        c.line("        read_floats(w_path, g_weights, kWeightWords) !=");
        c.line("        kWeightWords) {");
        c.line("        std::fprintf(stderr, \"short weights\\n\");");
        c.line("        return 2;");
        c.line("    }");
        c.line("    %s(image);", opt.topName.c_str());
        c.line("    std::FILE *f = std::fopen(out_path, \"wb\");");
        c.line("    if (!f) { std::perror(out_path); return 2; }");
        c.line("    std::fwrite(g_out, sizeof(float),");
        c.line("                sizeof(g_out) / sizeof(float), f);");
        c.line("    std::fclose(f);");
        c.line("    return 0;");
        c.line("}");
        c.line("#endif  // FLCNN_HLS_TESTBENCH");
    }
    return c.out;
}

} // namespace flcnn
